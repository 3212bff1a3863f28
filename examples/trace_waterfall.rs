//! Trace a packet's life end to end and render the latency waterfall.
//!
//! ```text
//! cargo run -p hni-bench --example trace_waterfall [pkt_octets]
//! ```
//!
//! Runs the unloaded end-to-end composition (transmit pipeline →
//! 5 µs of fibre → receive pipeline) with a recording tracer, then
//! reduces the event stream two ways:
//!
//! 1. the per-stage latency waterfall (the R-F3 breakdown, but measured
//!    from trace spans instead of computed in closed form),
//! 2. the first few events as JSONL, the interchange format
//!    `report trace <id>` emits.

use hni_bench::experiments::rf3_latency;
use hni_telemetry::{jsonl, Duration, PacketSpans};

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("pkt_octets must be an integer"))
        .unwrap_or(rf3_latency::TRACE_LEN);

    let events = rf3_latency::trace_run(len);
    println!(
        "traced one {len}-octet packet end to end: {} events\n",
        events.len()
    );

    let spans = PacketSpans::from_events(&events);
    let life = spans.life(0).filter(|l| l.is_complete());
    let life = life.expect("packet 0 fully traced");
    let total = life.total().expect("complete life has a total");
    let mut sum = Duration::ZERO;
    println!("latency waterfall, packet 0");
    for s in life.breakdown() {
        println!("  {:<12} {:>10.3} us", s.label, s.total().as_us_f64());
        sum += s.total();
    }
    println!("  {:<12} {:>10.3} us\n", "TOTAL", total.as_us_f64());
    println!(
        "stage sum {:.2} µs = total {:.2} µs (telescoping edges)\n",
        sum.as_us_f64(),
        total.as_us_f64()
    );

    println!("first 5 events as JSONL (`report trace <id>` emits a full stream):");
    for ev in events.iter().take(5) {
        let mut line = String::new();
        jsonl::write_event(&mut line, ev);
        println!("{line}");
    }
}

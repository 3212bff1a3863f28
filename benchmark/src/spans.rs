//! Spans recorded by the benchmark's own code around calls into each
//! layer's public functions.
//!
//! The loops call a layer many times per SONET frame (once per cell for
//! the scrambler, the CAM, the reassembler). Recording every call would
//! cost more than some of the calls, so a [`Recorder`] folds the calls
//! of one layer within one frame into a single span: first start, last
//! end, busy time (the sum of the call durations, which is the layer's
//! self time) and the call count. Each frame also gets a parent span.
//! Spans stay in memory and are written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers spans are recorded for, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The traffic generator: building an SDU from the seeded pool and,
    /// on `nic-mux`, interleaving cells and drawing their fault fates.
    AppBuild,
    /// `aal5::segment_into` / `aal5::segment`.
    AalSegment,
    /// `Scrambler::scramble` over cell payloads.
    AtmScramble,
    /// The transmit convergence octet queue: enqueue, idle fill, drain.
    SonetTcQueue,
    /// `FrameBuilder::build`.
    SonetFrameBuild,
    /// `FrameAligner::push`.
    SonetAlign,
    /// `FrameParser::parse`.
    SonetFrameParse,
    /// `Delineator::push_slice`.
    AtmDelineate,
    /// `Descrambler::descramble` plus idle-cell removal.
    AtmDescramble,
    /// `Cell::header` decode on receive.
    AtmHeader,
    /// `VcMetrics::record_cell`.
    TelemetryVcMetrics,
    /// `Cam::lookup`.
    CoreCamLookup,
    /// `Aal5Reassembler::push`.
    AalReassemble,
    /// `Aal5Reassembler::expire`.
    AalExpire,
    /// Checking a delivered SDU against the pool and recycling its buffer.
    AppVerify,
    /// `HostDriver::send` (or `Nic::inject_cell_faulted` for `nic-mux`).
    HostSend,
    /// `HostDriver::frame_tick`.
    HostFrameTick,
    /// `HostDriver::receive_line_octets`.
    HostReceive,
    /// `HostDriver::poll_rx`.
    HostPoll,
}

/// Number of [`Layer`]s.
pub const N_LAYERS: usize = 19;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::AppBuild,
        Layer::AalSegment,
        Layer::AtmScramble,
        Layer::SonetTcQueue,
        Layer::SonetFrameBuild,
        Layer::SonetAlign,
        Layer::SonetFrameParse,
        Layer::AtmDelineate,
        Layer::AtmDescramble,
        Layer::AtmHeader,
        Layer::TelemetryVcMetrics,
        Layer::CoreCamLookup,
        Layer::AalReassemble,
        Layer::AalExpire,
        Layer::AppVerify,
        Layer::HostSend,
        Layer::HostFrameTick,
        Layer::HostReceive,
        Layer::HostPoll,
    ];

    /// Dotted name, as metrics and span files spell it.
    pub fn name(self) -> &'static str {
        match self {
            Layer::AppBuild => "app.build",
            Layer::AalSegment => "aal.segment",
            Layer::AtmScramble => "atm.scramble",
            Layer::SonetTcQueue => "sonet.tc_queue",
            Layer::SonetFrameBuild => "sonet.frame_build",
            Layer::SonetAlign => "sonet.align",
            Layer::SonetFrameParse => "sonet.frame_parse",
            Layer::AtmDelineate => "atm.delineate",
            Layer::AtmDescramble => "atm.descramble",
            Layer::AtmHeader => "atm.header",
            Layer::TelemetryVcMetrics => "telemetry.vc_metrics",
            Layer::CoreCamLookup => "core.cam_lookup",
            Layer::AalReassemble => "aal.reassemble",
            Layer::AalExpire => "aal.expire",
            Layer::AppVerify => "app.verify",
            Layer::HostSend => "host.send",
            Layer::HostFrameTick => "host.frame_tick",
            Layer::HostReceive => "host.receive",
            Layer::HostPoll => "host.poll",
        }
    }

    /// Whether the layer is a host-driver call of the real path (as
    /// opposed to a fine layer of the layer-by-layer replay).
    pub fn is_host(self) -> bool {
        matches!(
            self,
            Layer::HostSend | Layer::HostFrameTick | Layer::HostReceive | Layer::HostPoll
        )
    }
}

/// What a loop calls around each layer call. [`NoProbe`] compiles to
/// nothing, so the untraced loop carries no tracing cost.
pub trait Probe {
    /// A start mark.
    type Mark: Copy;
    /// Take a start mark.
    fn mark(&self) -> Self::Mark;
    /// Close a call of `layer` that began at `m`.
    fn stop(&mut self, layer: Layer, m: Self::Mark);
    /// Close frame `frame`, which began at `m`.
    fn frame(&mut self, frame: u64, m: Self::Mark);
}

/// The probe of the untraced run.
pub struct NoProbe;

impl Probe for NoProbe {
    type Mark = ();
    #[inline(always)]
    fn mark(&self) {}
    #[inline(always)]
    fn stop(&mut self, _: Layer, _: ()) {}
    #[inline(always)]
    fn frame(&mut self, _: u64, _: ()) {}
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    id: u32,
    /// `None` for a frame span, else the layer.
    layer: Option<Layer>,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u32,
    parent: u32,
    frame: u64,
}

/// Spans kept in memory at most; later frames still count in the
/// totals but are not written out.
const SPAN_CAP: usize = 1 << 17;

/// The probe of the traced run: per-layer totals plus per-frame spans.
pub struct Recorder {
    origin: Instant,
    totals: [u64; N_LAYERS],
    busy: [u64; N_LAYERS],
    n: [u32; N_LAYERS],
    first: [u64; N_LAYERS],
    last: [u64; N_LAYERS],
    spans: Vec<Span>,
    next_id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            totals: [0; N_LAYERS],
            busy: [0; N_LAYERS],
            n: [0; N_LAYERS],
            first: [0; N_LAYERS],
            last: [0; N_LAYERS],
            spans: Vec::new(),
            next_id: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Self time of every layer so far, ns, indexed by `Layer as usize`.
    pub fn totals(&self) -> [u64; N_LAYERS] {
        self.totals
    }

    /// Append the spans as JSON lines tagged with `path`.
    pub fn write_jsonl(&self, path: &str, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let name = s.layer.map_or("frame", Layer::name);
            let self_ns = s.busy_ns;
            let _ = write!(
                line,
                "{{\"path\":\"{path}\",\"id\":{},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"calls\":{},\"parent\":",
                s.id, s.start_ns, s.end_ns, s.calls
            );
            if s.layer.is_some() {
                let _ = write!(line, "{}", s.parent);
            } else {
                line.push_str("null");
            }
            let _ = writeln!(line, ",\"frame\":{}}}", s.frame);
            out.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

impl Probe for Recorder {
    type Mark = Instant;

    #[inline]
    fn mark(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn stop(&mut self, layer: Layer, m: Instant) {
        let end = Instant::now();
        let i = layer as usize;
        let d = end.duration_since(m).as_nanos() as u64;
        self.busy[i] += d;
        if self.n[i] == 0 {
            self.first[i] = self.ns(m);
        }
        self.n[i] += 1;
        self.last[i] = self.ns(end);
    }

    fn frame(&mut self, frame: u64, m: Instant) {
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(m), self.ns(end));
        let keep = self.spans.len() < SPAN_CAP;
        let parent = self.next_id;
        self.next_id += 1;
        let mut children_busy = 0;
        for layer in Layer::ALL {
            let i = layer as usize;
            if self.n[i] == 0 {
                continue;
            }
            self.totals[i] += self.busy[i];
            children_busy += self.busy[i];
            if keep {
                self.spans.push(Span {
                    id: self.next_id,
                    layer: Some(layer),
                    start_ns: self.first[i],
                    end_ns: self.last[i],
                    busy_ns: self.busy[i],
                    calls: self.n[i],
                    parent,
                    frame,
                });
            }
            self.next_id += 1;
            self.busy[i] = 0;
            self.n[i] = 0;
        }
        if keep {
            self.spans.push(Span {
                id: parent,
                layer: None,
                start_ns,
                end_ns,
                busy_ns: (end_ns - start_ns).saturating_sub(children_busy),
                calls: 1,
                parent,
                frame,
            });
        }
    }
}

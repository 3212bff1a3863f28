//! `PacketSpans` — the one-pass per-packet span index.
//!
//! The index reduces a trace stream **once** into per-packet
//! [`PacketLife`] records, so one packet ("why was *this* packet
//! slow") and a whole cohort ("why are the p99 packets slow") are
//! answered from the same pass. A life keeps every stage edge of the
//! R-F3 breakdown, plus the `Enter` clocks that split each stage into
//! **queue-wait vs service** time:
//!
//! ```text
//! stage total = edge(prev stage end → this stage end)   (telescoping)
//! wait        = Enter − stage start (time queued before the engine)
//! service     = total − wait        (time actually being worked on)
//! ```
//!
//! The stage edges mirror the analytic decomposition in
//! `hni-analysis::latency`:
//!
//! ```text
//! tx setup       descriptor fetch → setup span exit
//! tx 1st burst   → first TX DMA burst done
//! tx 1st cell    → first segmentation span exit
//! serialize      → last cell handed to the framer
//! propagate      → last cell arrival at the receiver
//! rx cell        → last per-cell receive work exit
//! validate       → validation span exit
//! deliver dma    → last delivery DMA burst done
//! complete       → completion span exit
//! ```
//!
//! Each stage starts where the previous one ended, so a complete
//! life's stages sum *exactly* to its descriptor→completion total.
//! Stages recorded only as instants (DMA bursts, framer slots, the
//! propagation edge) have no `Enter`: their whole duration counts as
//! service. Lives that never complete (lost packets, tracing switched
//! off mid-flight) still index — they have no total, but every stage
//! whose edges *did* happen remains attributable via
//! [`PacketLife::breakdown`].

use crate::event::{Phase, Stage, TraceEvent, NO_ID};
use hni_sim::{Duration, Time};

/// The breakdown's stage labels, in path order.
pub const STAGE_LABELS: [&str; 9] = [
    "tx setup",
    "tx 1st burst",
    "tx 1st cell",
    "serialize",
    "propagate",
    "rx cell",
    "validate",
    "deliver dma",
    "complete",
];

/// One stage of a packet's life, split into queue-wait and service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStage {
    /// Stage label (matches [`STAGE_LABELS`] / the R-F3 columns).
    pub label: &'static str,
    /// Time queued before the stage's engine picked the work up.
    pub wait: Duration,
    /// Time being worked on (`total − wait`).
    pub service: Duration,
}

impl SpanStage {
    /// The stage's telescoping total (`wait + service`).
    pub fn total(&self) -> Duration {
        self.wait + self.service
    }
}

/// Every edge of one packet's life the trace contained. `first_*`
/// fields keep the earliest matching event, `last_*` the latest.
#[derive(Clone, Copy, Debug, Default)]
pub struct PacketLife {
    /// First `TxDescriptor` (descriptor fetch / packet arrival).
    pub desc: Option<Time>,
    /// VC key of that `TxDescriptor`: the transmit side's key (receive
    /// side events carry the connection index instead). Meaningful
    /// once `desc` is set.
    pub vc: u32,
    /// First `TxSetup` `Enter`.
    pub setup_enter: Option<Time>,
    /// First `TxSetup` `Exit`.
    pub setup_exit: Option<Time>,
    /// First `TxDmaBurst` (zero-length packets have none).
    pub first_burst: Option<Time>,
    /// First `TxSegment` `Enter`.
    pub seg_enter: Option<Time>,
    /// First `TxSegment` `Exit`.
    pub seg_exit: Option<Time>,
    /// Last `TxFramer` (last cell on the wire).
    pub last_wire: Option<Time>,
    /// Last `RxCellArrive` (last cell at the receiver).
    pub last_arrive: Option<Time>,
    /// Last `RxCell` `Enter` (the engine picking up the last cell).
    pub rx_cell_enter: Option<Time>,
    /// Last `RxCell` `Exit`.
    pub rx_cell_exit: Option<Time>,
    /// First `RxValidate` `Enter`.
    pub validate_enter: Option<Time>,
    /// First `RxValidate` `Exit`.
    pub validate_exit: Option<Time>,
    /// Last `RxDmaBurst` (packets delivered without DMA have none).
    pub last_dma: Option<Time>,
    /// First `RxComplete` `Enter`.
    pub complete_enter: Option<Time>,
    /// First `RxComplete` `Exit`.
    pub complete_exit: Option<Time>,
}

impl PacketLife {
    fn absorb(&mut self, ev: &TraceEvent) {
        let first = |slot: &mut Option<Time>| {
            if slot.is_none() {
                *slot = Some(ev.time);
            }
        };
        let last = |slot: &mut Option<Time>| *slot = Some(ev.time);
        match (ev.stage, ev.phase) {
            (Stage::TxDescriptor, _) if self.desc.is_none() => {
                self.desc = Some(ev.time);
                self.vc = ev.vc;
            }
            (Stage::TxSetup, Phase::Enter) => first(&mut self.setup_enter),
            (Stage::TxSetup, Phase::Exit) => first(&mut self.setup_exit),
            (Stage::TxDmaBurst, _) => first(&mut self.first_burst),
            (Stage::TxSegment, Phase::Enter) => first(&mut self.seg_enter),
            (Stage::TxSegment, Phase::Exit) => first(&mut self.seg_exit),
            (Stage::TxFramer, _) => last(&mut self.last_wire),
            (Stage::RxCellArrive, _) => last(&mut self.last_arrive),
            (Stage::RxCell, Phase::Enter) => last(&mut self.rx_cell_enter),
            (Stage::RxCell, Phase::Exit) => last(&mut self.rx_cell_exit),
            (Stage::RxValidate, Phase::Enter) => first(&mut self.validate_enter),
            (Stage::RxValidate, Phase::Exit) => first(&mut self.validate_exit),
            (Stage::RxDmaBurst, _) => last(&mut self.last_dma),
            (Stage::RxComplete, Phase::Enter) => first(&mut self.complete_enter),
            (Stage::RxComplete, Phase::Exit) => first(&mut self.complete_exit),
            _ => {}
        }
    }

    /// The nine telescoping stage edges, in path order, with their
    /// fallbacks (no TX DMA → previous edge; no delivery DMA → validate
    /// edge). `None` entries are stages whose closing edge the trace
    /// never contained.
    fn edges(&self) -> [Option<(Time, Option<Time>)>; 9] {
        // (closing edge, Enter clock that splits wait from service).
        let first_burst = self.first_burst.or(self.setup_exit);
        let last_dma = self.last_dma.or(self.validate_exit);
        [
            self.setup_exit.map(|t| (t, self.setup_enter)),
            first_burst.map(|t| (t, None)),
            self.seg_exit.map(|t| (t, self.seg_enter)),
            self.last_wire.map(|t| (t, None)),
            self.last_arrive.map(|t| (t, None)),
            self.rx_cell_exit.map(|t| (t, self.rx_cell_enter)),
            self.validate_exit.map(|t| (t, self.validate_enter)),
            last_dma.map(|t| (t, None)),
            self.complete_exit.map(|t| (t, self.complete_enter)),
        ]
    }

    /// Whether the trace contained this packet's full life —
    /// descriptor fetch through completion.
    pub fn is_complete(&self) -> bool {
        self.desc.is_some() && self.edges().iter().all(Option::is_some)
    }

    /// Descriptor fetch → completion, when the life is complete.
    pub fn total(&self) -> Option<Duration> {
        Some(self.complete_exit?.saturating_since(self.desc?))
    }

    /// The wait/service breakdown of every *attributable* stage: the
    /// leading run of stages whose closing edges the trace contained.
    /// A complete life yields all nine stages, telescoping exactly to
    /// [`total`](Self::total); a dropped packet yields the prefix up to
    /// where its life ended — still attributable, per stage.
    pub fn breakdown(&self) -> Vec<SpanStage> {
        let mut out = Vec::with_capacity(9);
        let Some(mut prev) = self.desc else {
            return out;
        };
        for (label, edge) in STAGE_LABELS.iter().zip(self.edges()) {
            let Some((end, enter)) = edge else { break };
            let total = end.saturating_since(prev);
            let wait = match enter {
                Some(t) => {
                    let w = t.saturating_since(prev);
                    if w > total {
                        total
                    } else {
                        w
                    }
                }
                None => Duration::ZERO,
            };
            out.push(SpanStage {
                label,
                wait,
                service: total - wait,
            });
            prev = end;
        }
        out
    }
}

/// Per-packet span index over a trace stream: one O(events) reduction
/// pass, then O(1) access to any packet's life.
#[derive(Clone, Debug, Default)]
pub struct PacketSpans {
    lives: Vec<Option<PacketLife>>,
}

impl PacketSpans {
    /// Reduce a trace stream into the index. Events without a packet
    /// identity (run-level instants, pure cell events) are skipped.
    pub fn from_events(events: &[TraceEvent]) -> PacketSpans {
        let mut lives: Vec<Option<PacketLife>> = Vec::new();
        for ev in events {
            if ev.pkt == NO_ID {
                continue;
            }
            let idx = ev.pkt as usize;
            if idx >= lives.len() {
                lives.resize(idx + 1, None);
            }
            lives[idx]
                .get_or_insert_with(PacketLife::default)
                .absorb(ev);
        }
        PacketSpans { lives }
    }

    /// The indexed life of packet `pkt`, if any of its events appeared.
    pub fn life(&self, pkt: u32) -> Option<&PacketLife> {
        self.lives.get(pkt as usize)?.as_ref()
    }

    /// Packet ids with at least one indexed event, ascending.
    pub fn packets(&self) -> impl Iterator<Item = u32> + '_ {
        self.lives
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_some())
            .map(|(i, _)| i as u32)
    }

    /// Number of packets with at least one indexed event.
    pub fn len(&self) -> usize {
        self.lives.iter().filter(|l| l.is_some()).count()
    }

    /// True when no packet left any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ns: u64, st: Stage, ph: Phase, pkt: u32) -> TraceEvent {
        TraceEvent {
            time: Time::from_ns(ns),
            stage: st,
            phase: ph,
            vc: 64,
            pkt,
            cell: NO_ID,
            arg: 0,
        }
    }

    fn full_life(pkt: u32, base_ns: u64) -> Vec<TraceEvent> {
        let b = base_ns;
        vec![
            e(b, Stage::TxDescriptor, Phase::Instant, pkt),
            e(b + 20, Stage::TxSetup, Phase::Enter, pkt),
            e(b + 100, Stage::TxSetup, Phase::Exit, pkt),
            e(b + 250, Stage::TxDmaBurst, Phase::Instant, pkt),
            e(b + 300, Stage::TxSegment, Phase::Enter, pkt),
            e(b + 400, Stage::TxSegment, Phase::Exit, pkt),
            e(b + 1_100, Stage::TxFramer, Phase::Instant, pkt),
            e(b + 1_800, Stage::TxFramer, Phase::Instant, pkt),
            e(b + 6_800, Stage::RxCellArrive, Phase::Instant, pkt),
            e(b + 6_850, Stage::RxCell, Phase::Enter, pkt),
            e(b + 6_900, Stage::RxCell, Phase::Exit, pkt),
            e(b + 6_950, Stage::RxValidate, Phase::Enter, pkt),
            e(b + 7_000, Stage::RxValidate, Phase::Exit, pkt),
            e(b + 7_500, Stage::RxDmaBurst, Phase::Instant, pkt),
            e(b + 7_550, Stage::RxComplete, Phase::Enter, pkt),
            e(b + 7_600, Stage::RxComplete, Phase::Exit, pkt),
        ]
    }

    /// The telescoping total of the stage labelled `label`.
    fn stage(life: &PacketLife, label: &str) -> Duration {
        let b = life.breakdown();
        b.iter().find(|s| s.label == label).expect(label).total()
    }

    #[test]
    fn one_pass_index_matches_waterfall_edges() {
        // Receive-side events carry the connection index, not the VC key.
        let mut ev = full_life(0, 0);
        for e in ev.iter_mut().filter(|e| e.stage.name().starts_with("rx.")) {
            e.vc = 3;
        }
        let spans = PacketSpans::from_events(&ev);
        let life = spans.life(0).expect("indexed");
        assert!(life.is_complete());
        assert_eq!(life.vc, 64, "the life keeps the transmit side's key");
        assert_eq!(life.total(), Some(Duration::from_ns(7_600)));
        assert_eq!(stage(life, "tx setup"), Duration::from_ns(100));
        assert_eq!(stage(life, "serialize"), Duration::from_ns(1_400));
        assert_eq!(stage(life, "propagate"), Duration::from_ns(5_000));
    }

    #[test]
    fn breakdown_splits_wait_from_service_and_telescopes() {
        let spans = PacketSpans::from_events(&full_life(0, 0));
        let life = spans.life(0).unwrap();
        assert!(life.is_complete());
        let b = life.breakdown();
        assert_eq!(b.len(), 9);
        // tx setup: 0→100 total; engine picked it up at 20.
        assert_eq!(b[0].wait, Duration::from_ns(20));
        assert_eq!(b[0].service, Duration::from_ns(80));
        // rx cell: last arrival 6800 → exit 6900; enter at 6850.
        let rx = b.iter().find(|s| s.label == "rx cell").unwrap();
        assert_eq!(rx.wait, Duration::from_ns(50));
        assert_eq!(rx.service, Duration::from_ns(50));
        // Instant-only stages are pure service.
        let prop = b.iter().find(|s| s.label == "propagate").unwrap();
        assert_eq!(prop.wait, Duration::ZERO);
        // Telescoping: stage totals sum exactly to the life total.
        let sum = b.iter().fold(Duration::ZERO, |a, s| a + s.total());
        assert_eq!(sum, life.total().unwrap());
    }

    #[test]
    fn dropped_packet_has_no_waterfall_but_partial_spans() {
        // Life ends on the wire: no rx events at all.
        let mut ev = full_life(0, 0);
        ev.retain(|e| {
            !matches!(
                e.stage,
                Stage::RxCellArrive
                    | Stage::RxCell
                    | Stage::RxValidate
                    | Stage::RxDmaBurst
                    | Stage::RxComplete
            )
        });
        let spans = PacketSpans::from_events(&ev);
        let life = spans.life(0).expect("partial life still indexed");
        assert!(!life.is_complete());
        assert!(life.total().is_none());
        let b = life.breakdown();
        // The tx-side prefix is still attributable, stage by stage.
        let labels: Vec<&str> = b.iter().map(|s| s.label).collect();
        assert_eq!(
            labels,
            ["tx setup", "tx 1st burst", "tx 1st cell", "serialize"]
        );
        assert_eq!(b[0].wait, Duration::from_ns(20));
    }

    #[test]
    fn zero_length_packet_falls_back_to_setup_edge() {
        // No TxDmaBurst: "tx 1st burst" must collapse onto the setup
        // edge (zero duration).
        let ev: Vec<TraceEvent> = full_life(0, 0)
            .into_iter()
            .filter(|e| e.stage != Stage::TxDmaBurst)
            .collect();
        let spans = PacketSpans::from_events(&ev);
        let life = spans.life(0).unwrap();
        assert!(life.is_complete(), "still complete");
        assert_eq!(stage(life, "tx 1st burst"), Duration::ZERO);
        let sum = life
            .breakdown()
            .iter()
            .fold(Duration::ZERO, |a, s| a + s.total());
        assert_eq!(Some(sum), life.total());
    }

    #[test]
    fn index_holds_many_packets_and_skips_identityless_events() {
        let mut ev = Vec::new();
        ev.push(TraceEvent::instant(Time::ZERO, Stage::TxSetup)); // NO_ID
        ev.extend(full_life(0, 0));
        ev.extend(full_life(3, 50_000));
        let spans = PacketSpans::from_events(&ev);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.packets().collect::<Vec<_>>(), vec![0, 3]);
        assert!(spans.life(1).is_none());
        assert!(spans.life(3).is_some_and(PacketLife::is_complete));
        assert!(spans.life(7).is_none());
        assert!(!spans.is_empty());
        assert!(PacketSpans::from_events(&[]).is_empty());
    }
}

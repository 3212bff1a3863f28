//! Seeded traffic: the SDUs a workload offers and the checks every
//! delivered SDU must pass.
//!
//! An SDU is `seq (8 octets, LE) ‖ pool[off .. off + len − 8]`, where the
//! payload pool is a block of seeded random octets and `off` is drawn
//! from the same seeded stream. The receiver recovers `seq` from the tag, looks
//! up the SDU's VC and length, and compares the rest against the pool,
//! so verification needs no copy of what was sent.

use crate::stats::mix64;
use hni_atm::VcId;
use hni_sim::{Duration, FaultPlan, Rng, Zipf};

/// Octets of seeded payload the SDUs are cut from.
const POOL_LEN: usize = 1 << 18;
/// Tag octets at the head of every SDU.
const TAG_LEN: usize = 8;
/// First VCI the workloads use (below it are reserved channels).
const FIRST_VCI: u16 = VcId::FIRST_USER_VCI;

/// A byte-path workload: which VCs, which SDU sizes, how many.
#[derive(Clone, Debug)]
pub struct NicWorkload {
    /// Workload name as the command line spells it.
    pub name: &'static str,
    /// Connections opened on both ends.
    pub n_vcs: usize,
    /// Zipf exponent for the VC of each SDU; `None` draws uniformly.
    pub zipf: Option<f64>,
    /// SDU sizes, drawn uniformly (see [`Traffic::generate`]).
    pub sizes: &'static [usize],
    /// SDUs in one epoch (the fixed unit of work a run repeats).
    pub sdus_per_epoch: usize,
    /// Interleaved injection: this many SDUs in flight at once, their
    /// cells injected one by one through a fault plan.
    pub mux: Option<Mux>,
    /// Receive reassembly timeout.
    pub reassembly_timeout: Duration,
}

/// Parameters of the interleaved, faulted injection of `nic-mux`.
#[derive(Clone, Copy, Debug)]
pub struct Mux {
    /// SDUs whose cells are interleaved at once.
    pub in_flight: usize,
    /// Cell loss rate of the fault plan.
    pub loss: f64,
    /// Bit error rate of the fault plan.
    pub ber: f64,
}

impl Mux {
    /// The fault plan cells pass through.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::iid(self.loss, self.ber)
    }
}

/// The byte-path workloads, in run order.
pub fn nic_workloads() -> [NicWorkload; 3] {
    [
        NicWorkload {
            name: "nic-bulk",
            n_vcs: 8,
            zipf: Some(1.1),
            sizes: &[9180],
            sdus_per_epoch: 200,
            mux: None,
            reassembly_timeout: Duration::from_ms(10),
        },
        NicWorkload {
            name: "nic-small",
            n_vcs: 64,
            zipf: None,
            sizes: &[40, 64, 128, 552],
            sdus_per_epoch: 16_000,
            mux: None,
            reassembly_timeout: Duration::from_ms(10),
        },
        NicWorkload {
            name: "nic-mux",
            n_vcs: 60_000,
            zipf: None,
            sizes: &[40, 552, 1500, 9180],
            sdus_per_epoch: 4_000,
            mux: Some(Mux {
                in_flight: 256,
                loss: 1e-3,
                ber: 1e-6,
            }),
            reassembly_timeout: Duration::from_ms(100),
        },
    ]
}

/// The VC with index `i` (all on VPI 0, VCIs from 32 up).
pub fn vc(i: usize) -> VcId {
    let vci = u16::try_from(i).expect("fewer than 65,504 VCs") + FIRST_VCI;
    VcId::new(0, vci)
}

/// One SDU of the epoch.
#[derive(Clone, Copy, Debug)]
pub struct Sdu {
    /// Index of its VC (see [`vc`]).
    pub vc: u32,
    /// Octets, tag included.
    pub len: u32,
    /// Where its untagged octets start in the pool.
    pub off: u32,
}

/// The SDU sequence of one epoch plus the pool it is cut from. The same
/// seed always yields the same traffic.
pub struct Traffic {
    /// SDUs in offer order.
    pub sdus: Vec<Sdu>,
    pool: Vec<u8>,
}

impl Traffic {
    /// Generate `n` SDUs of workload `w` from `seed`.
    pub fn generate(w: &NicWorkload, n: usize, seed: u64) -> Self {
        let mut rng = Rng::new(mix64(seed ^ 0x7261_6666_6963));
        let mut pool = vec![0u8; POOL_LEN];
        for chunk in pool.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let zipf = w.zipf.map(|s| Zipf::new(w.n_vcs, s));
        let max_len = *w.sizes.iter().max().expect("at least one size");
        let span = (POOL_LEN - max_len) as u64;
        // Sizes are drawn without replacement, one shuffled round of
        // every size at a time: uniform, and every epoch carries the same
        // octets whatever the seed, so seeds differ in order and VCs only.
        let mut round = w.sizes.to_vec();
        let sdus = (0..n)
            .map(|i| {
                if i % round.len() == 0 {
                    rng.shuffle(&mut round);
                }
                let len = round[i % round.len()];
                let vc = match &zipf {
                    Some(z) => z.sample(&mut rng),
                    None => rng.below(w.n_vcs as u64) as usize,
                };
                Sdu {
                    vc: vc as u32,
                    len: len as u32,
                    off: rng.below(span) as u32,
                }
            })
            .collect();
        Traffic { sdus, pool }
    }

    /// Build SDU `seq` into a fresh buffer.
    pub fn sdu_bytes(&self, seq: usize) -> Vec<u8> {
        let s = self.sdus[seq];
        let mut buf = Vec::with_capacity(s.len as usize);
        buf.extend_from_slice(&(seq as u64).to_le_bytes());
        buf.extend_from_slice(self.body(&s));
        buf
    }

    fn body(&self, s: &Sdu) -> &[u8] {
        let off = s.off as usize;
        &self.pool[off..off + s.len as usize - TAG_LEN]
    }

    /// Data cells the whole epoch occupies on the line (AAL5).
    pub fn cells(&self) -> u64 {
        self.sdus
            .iter()
            .map(|s| hni_aal::AalType::Aal5.cells_for_sdu(s.len as usize) as u64)
            .sum()
    }
}

/// Checks delivered SDUs against the traffic and folds them into a
/// digest of (seq, VC, length) in delivery order.
pub struct Verifier {
    seen: Vec<bool>,
    /// SDUs delivered and verified.
    pub delivered: u64,
    /// Payload octets of verified SDUs.
    pub octets: u64,
    /// SDUs that failed a check (bad tag, wrong VC or length, payload
    /// mismatch, or delivered twice).
    pub bad: u64,
    /// Order-sensitive digest of what was delivered.
    pub digest: u64,
}

impl Verifier {
    /// A verifier for an epoch of `n` SDUs.
    pub fn new(n: usize) -> Self {
        Verifier {
            seen: vec![false; n],
            delivered: 0,
            octets: 0,
            bad: 0,
            digest: 0,
        }
    }

    /// Check one delivered SDU; returns whether it passed.
    pub fn check(&mut self, t: &Traffic, on: VcId, data: &[u8]) -> bool {
        let ok = self.matches(t, on, data);
        if ok {
            let seq = u64::from_le_bytes(data[..TAG_LEN].try_into().expect("tag"));
            self.seen[seq as usize] = true;
            self.delivered += 1;
            self.octets += data.len() as u64;
            self.digest =
                mix64(self.digest ^ seq) ^ (u64::from(on.cam_key()) << 20) ^ data.len() as u64;
        } else {
            self.bad += 1;
        }
        ok
    }

    fn matches(&self, t: &Traffic, on: VcId, data: &[u8]) -> bool {
        if data.len() < TAG_LEN {
            return false;
        }
        let seq = u64::from_le_bytes(data[..TAG_LEN].try_into().expect("tag"));
        let Some(s) = usize::try_from(seq).ok().and_then(|i| t.sdus.get(i)) else {
            return false;
        };
        !self.seen[seq as usize]
            && vc(s.vc as usize) == on
            && s.len as usize == data.len()
            && t.body(s) == &data[TAG_LEN..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let w = &nic_workloads()[0];
        let a = Traffic::generate(w, 50, 7);
        let b = Traffic::generate(w, 50, 7);
        let c = Traffic::generate(w, 50, 8);
        assert_eq!(a.sdu_bytes(3), b.sdu_bytes(3));
        assert_ne!(a.sdu_bytes(3), c.sdu_bytes(3));
    }

    #[test]
    fn verifier_accepts_once_and_rejects_damage() {
        let w = &nic_workloads()[1];
        let t = Traffic::generate(w, 10, 1);
        let mut v = Verifier::new(10);
        let s = t.sdus[4];
        let mut bytes = t.sdu_bytes(4);
        assert!(v.check(&t, vc(s.vc as usize), &bytes));
        assert!(!v.check(&t, vc(s.vc as usize), &bytes), "duplicate");
        let mut v = Verifier::new(10);
        *bytes.last_mut().unwrap() ^= 1;
        assert!(!v.check(&t, vc(s.vc as usize), &bytes), "payload damage");
        assert_eq!(v.bad, 1);
    }
}

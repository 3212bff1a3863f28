//! The single configuration type the functional data path hangs off.

use crate::rxsim::RxConfig;
use hni_aal::AalType;
use hni_sim::Duration;
use hni_sonet::LineRate;

/// Host-interface configuration of the functional data path
/// ([`crate::nic`]). [`NicConfig::rx_config`] derives the receive
/// timing simulation's view of the same interface.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// SONET line rate.
    pub rate: LineRate,
    /// Adaptation layer for user VCs.
    pub aal: AalType,
    /// CAM capacity (simultaneous open VCs).
    pub cam_capacity: usize,
    /// Largest SDU accepted.
    pub max_sdu: usize,
    /// Receive reassembly timeout: a frame whose first cell arrived
    /// more than this long ago is abandoned at the next line delivery.
    /// Must be positive ([`crate::Nic::new`] panics on zero).
    pub reassembly_timeout: Duration,
}

impl NicConfig {
    /// The architecture's design point.
    pub fn paper(rate: LineRate) -> Self {
        NicConfig {
            rate,
            aal: AalType::Aal5,
            cam_capacity: 256,
            max_sdu: 65535,
            reassembly_timeout: Duration::from_ms(10),
        }
    }

    /// Derive the receive-simulation view of this configuration: the
    /// paper's receive adaptor at this rate, AAL and reassembly timeout.
    pub fn rx_config(&self) -> RxConfig {
        RxConfig {
            aal: self.aal,
            reassembly_timeout: self.reassembly_timeout,
            ..RxConfig::paper(self.rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_views_carry_fields() {
        let c = NicConfig {
            aal: AalType::Aal34,
            reassembly_timeout: Duration::from_ms(3),
            ..NicConfig::paper(LineRate::Oc3)
        };
        let rx = c.rx_config();
        assert_eq!(rx.rate, LineRate::Oc3);
        assert_eq!(rx.aal, c.aal);
        assert_eq!(rx.reassembly_timeout, c.reassembly_timeout);
    }
}

//! Simulator error types.

use ccube_collectives::EdgeKey;
use ccube_topology::GpuId;
use std::error::Error;
use std::fmt;

/// Errors produced while simulating a schedule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The embedding is missing a route for a logical edge the schedule
    /// uses.
    MissingRoute(EdgeKey),
    /// A route references a channel that does not exist in the topology.
    UnknownChannel {
        /// The offending edge.
        edge: EdgeKey,
        /// The channel index that was out of range.
        channel_index: usize,
    },
    /// The event loop stalled with transfers outstanding (a dependency
    /// cycle or an impossible resource requirement).
    Deadlock {
        /// Number of transfers that never ran.
        remaining: usize,
    },
    /// A transfer's channels went down permanently and no surviving
    /// route — direct, detour, or host bridge — connects its endpoints.
    Unroutable {
        /// The sending GPU.
        src: GpuId,
        /// The receiving GPU.
        dst: GpuId,
    },
    /// A fault plan failed validation (an event with a non-positive
    /// window, a degrade rate outside (0, 1], a straggler slowdown below
    /// 1 or not finite, or a channel/GPU outside the topology).
    FaultPlanInvalid(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingRoute(edge) => {
                write!(f, "embedding has no route for logical edge {edge}")
            }
            SimError::UnknownChannel {
                edge,
                channel_index,
            } => write!(
                f,
                "route for {edge} references unknown channel index {channel_index}"
            ),
            SimError::Deadlock { remaining } => {
                write!(
                    f,
                    "simulation deadlocked with {remaining} transfers outstanding"
                )
            }
            SimError::Unroutable { src, dst } => {
                write!(
                    f,
                    "no surviving route from {src} to {dst} under the injected faults"
                )
            }
            SimError::FaultPlanInvalid(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl Error for SimError {}

impl From<ccube_collectives::LowerError> for SimError {
    fn from(e: ccube_collectives::LowerError) -> Self {
        use ccube_collectives::LowerError;
        match e {
            LowerError::MissingRoute(edge) => SimError::MissingRoute(edge),
            LowerError::UnknownChannel {
                edge,
                channel_index,
            } => SimError::UnknownChannel {
                edge,
                channel_index,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_collectives::{Rank, TreeIndex};

    #[test]
    fn display_is_informative() {
        let e = SimError::MissingRoute(EdgeKey {
            src: Rank(0),
            dst: Rank(1),
            tree: TreeIndex(0),
        });
        assert!(e.to_string().contains("r0->r1"));
        let d = SimError::Deadlock { remaining: 3 };
        assert!(d.to_string().contains('3'));
    }

    #[test]
    fn fault_variant_displays_are_informative() {
        let u = SimError::Unroutable {
            src: GpuId(2),
            dst: GpuId(4),
        };
        let text = u.to_string();
        assert!(text.contains("gpu2") && text.contains("gpu4"), "{text}");
        assert!(text.contains("route"));
        let p = SimError::FaultPlanInvalid("until must exceed from".into());
        assert!(p.to_string().contains("invalid fault plan"));
        assert!(p.to_string().contains("until must exceed from"));
    }
}

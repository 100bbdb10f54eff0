//! The device pool of one scheduler (the trainer's or the serving loop's) and
//! the one interpreter of [`FaultEvent`]s: [`DevicePool::apply`] turns an
//! event into effects and returns them as data; the scheduler only reacts.
//! `alive` belongs to the faults, `commissioned` to the caller (always set in
//! the trainer); *dispatchable* is both, and the *frontier* is the earliest
//! dispatchable clock. The policy:
//!
//! | Event | Effect |
//! |---|---|
//! | any kind naming an unknown or dead device, or a server with no live member | nothing |
//! | `SpeedChange` | scheduled from the frontier (read per event), never retroactively |
//! | `Stall` | the device's clock jumps `+seconds` |
//! | `DeviceLoss` | the device dies; refused (`last survivor`) for the only dispatchable device |
//! | `ServerLoss` | every live member dies at once; refused whole (`no survivor outside`) when no dispatchable device lives off the server |
//! | `InterNodeStall` | every live member's clock jumps `+seconds` |
//! | `MergeOom` | nothing: merge-phase-only ([`crate::FaultPlan::merge_oom_at`]) |

use crate::{earliest_free, Device, FaultEvent, FaultKind, SimTime};

/// What a fault event named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A device, by pool index.
    Device(usize),
    /// A server.
    Server(usize),
}

/// What an applied fault did to its unit.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEffect {
    /// The device's speed factor becomes this.
    Speed(f64),
    /// The device froze for this many seconds.
    Stalled(f64),
    /// Every live member of the server froze for this many seconds.
    Unreachable(f64),
    /// These devices died, ascending.
    Lost(Vec<usize>),
    /// The loss was refused, and why.
    Refused(&'static str),
}

/// One fault event, applied.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The device or server the event named.
    pub unit: Unit,
    /// What it did there.
    pub effect: FaultEffect,
    /// When: the clock a stall froze (the earliest member's for a server),
    /// the frontier otherwise.
    pub at: SimTime,
}

/// The devices of one scheduler (see the module docs).
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<Device>,
    servers: Vec<usize>,
    alive: Vec<bool>,
    commissioned: Vec<bool>,
}

impl DevicePool {
    /// Device `i` on server `server_of(i)` — `i / per_server` in the
    /// trainer, `i % servers` in the fleet — all alive and commissioned.
    pub fn new(devices: Vec<Device>, server_of: impl Fn(usize) -> usize) -> Self {
        let n = devices.len();
        Self {
            servers: (0..n).map(server_of).collect(),
            devices,
            alive: vec![true; n],
            commissioned: vec![true; n],
        }
    }

    /// Number of devices, dead ones included.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device `i`.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Device `i`, to charge work to.
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// The server device `i` lives on.
    pub fn server(&self, i: usize) -> usize {
        self.servers[i]
    }

    /// Whether `i` names a device no fault has killed.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.get(i) == Some(&true)
    }

    /// Puts device `i` in service or takes it out.
    pub fn set_commissioned(&mut self, i: usize, on: bool) {
        self.commissioned[i] = on;
    }

    /// Alive and commissioned.
    pub fn is_dispatchable(&self, i: usize) -> bool {
        self.is_alive(i) && self.commissioned[i]
    }

    /// Every dispatchable `(index, device)`, ascending.
    pub fn dispatchable(&self) -> impl Iterator<Item = (usize, &Device)> + '_ {
        let up = move |&(i, _): &(usize, &Device)| self.is_dispatchable(i);
        self.devices.iter().enumerate().filter(up)
    }

    /// The dispatchable device whose clock frees first ([`earliest_free`]).
    pub fn earliest_free(&self) -> Option<usize> {
        earliest_free(self.dispatchable())
    }

    /// The earliest dispatchable clock (panics when there is none).
    pub fn frontier(&self) -> SimTime {
        self.devices[self.earliest_free().expect("no dispatchable device")].now()
    }

    /// The latest live clock (zero when nothing lives).
    pub fn latest_live_clock(&self) -> SimTime {
        let live = self.devices.iter().zip(&self.alive).filter(|(_, &a)| a);
        live.map(|(d, _)| d.now()).fold(SimTime::ZERO, SimTime::max)
    }

    /// Applies one event under the module's policy; `None`: it did nothing.
    pub fn apply(&mut self, e: &FaultEvent) -> Option<FaultOutcome> {
        let g = e.gpu;
        let (mut unit, mut at) = (Unit::Device(g), self.frontier());
        let effect = match e.kind {
            FaultKind::SpeedChange { factor } if self.is_alive(g) => {
                self.devices[g].schedule_speed_factor(at, factor);
                FaultEffect::Speed(factor)
            }
            FaultKind::Stall { seconds } if self.is_alive(g) => {
                at = self.stall(g, seconds);
                FaultEffect::Stalled(seconds)
            }
            FaultKind::DeviceLoss if self.is_alive(g) => {
                if self.is_dispatchable(g) && self.dispatchable().nth(1).is_none() {
                    FaultEffect::Refused("last survivor")
                } else {
                    self.alive[g] = false;
                    FaultEffect::Lost(vec![g])
                }
            }
            FaultKind::ServerLoss | FaultKind::InterNodeStall { .. } => {
                let on = |i: usize| self.servers[i] == g;
                let live = (0..self.devices.len()).filter(|&i| self.alive[i] && on(i));
                let members: Vec<usize> = live.collect();
                if members.is_empty() {
                    return None;
                }
                unit = Unit::Server(g);
                if let FaultKind::InterNodeStall { seconds } = e.kind {
                    let froze = members.iter().map(|&i| self.stall(i, seconds));
                    at = froze.min_by(|a, b| a.0.total_cmp(&b.0)).expect("members");
                    FaultEffect::Unreachable(seconds)
                } else if !self.dispatchable().any(|(i, _)| !on(i)) {
                    FaultEffect::Refused("no survivor outside")
                } else {
                    members.iter().for_each(|&i| self.alive[i] = false);
                    FaultEffect::Lost(members)
                }
            }
            _ => return None,
        };
        Some(FaultOutcome { unit, effect, at })
    }

    /// Freezes device `i` for `seconds`; returns the clock it froze at.
    fn stall(&mut self, i: usize, seconds: f64) -> SimTime {
        let from = self.devices[i].now();
        self.devices[i].advance_to(from + seconds);
        from
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::profile::DeviceProfile;
    use crate::{DeviceId, KernelKind};
    use proptest::prelude::*;

    /// Event `(kind, target, parameter)` draws, targets in range, one past
    /// it and beyond.
    fn event(pool: &DevicePool, servers: usize, (kind, target, p): (u8, usize, u32)) -> FaultEvent {
        let (n, seconds) = (pool.n_devices(), f64::from(p) * 1e-4);
        let (gpu, kind) = match kind {
            0 => (
                target % (n + 2),
                FaultKind::SpeedChange {
                    factor: f64::from(p) / 40.0,
                },
            ),
            1 => (target % (n + 2), FaultKind::Stall { seconds }),
            2 | 3 => (target % (n + 2), FaultKind::DeviceLoss),
            4 => (target % (servers + 1), FaultKind::ServerLoss),
            5 => (
                target % (servers + 1),
                FaultKind::InterNodeStall { seconds },
            ),
            _ => (0, FaultKind::MergeOom),
        };
        FaultEvent {
            at_mega: 0,
            after_batches: 0,
            gpu,
            kind,
        }
    }

    /// The policy table, evaluated on the pool as it stands before `e`.
    fn expected(pool: &DevicePool, e: &FaultEvent) -> String {
        let n = pool.n_devices();
        let members: Vec<usize> = (0..n)
            .filter(|&i| pool.is_alive(i) && pool.server(i) == e.gpu)
            .collect();
        let up = pool.dispatchable().count();
        let outside = (0..n).any(|i| pool.is_dispatchable(i) && pool.server(i) != e.gpu);
        match e.kind {
            FaultKind::MergeOom => "none".into(),
            FaultKind::ServerLoss | FaultKind::InterNodeStall { .. } if members.is_empty() => {
                "none".into()
            }
            FaultKind::InterNodeStall { .. } => "unreachable".into(),
            FaultKind::ServerLoss if !outside => "refused no survivor outside".into(),
            FaultKind::ServerLoss => format!("lost {members:?}"),
            _ if !pool.is_alive(e.gpu) => "none".into(),
            FaultKind::SpeedChange { .. } => "speed".into(),
            FaultKind::Stall { .. } => "stalled".into(),
            _ if pool.is_dispatchable(e.gpu) && up == 1 => "refused last survivor".into(),
            _ => format!("lost {:?}", [e.gpu]),
        }
    }

    fn shape(o: &Option<FaultOutcome>) -> String {
        match o.as_ref().map(|o| &o.effect) {
            None => "none".into(),
            Some(FaultEffect::Speed(_)) => "speed".into(),
            Some(FaultEffect::Stalled(_)) => "stalled".into(),
            Some(FaultEffect::Unreachable(_)) => "unreachable".into(),
            Some(FaultEffect::Lost(m)) => format!("lost {m:?}"),
            Some(FaultEffect::Refused(why)) => format!("refused {why}"),
        }
    }

    /// Applies `draws` to a fresh `servers × per` pool, checking the policy
    /// at every step; returns the outcomes.
    fn drive(
        (servers, per, round_robin): (usize, usize, bool),
        idle: &[bool],
        draws: &[(u8, usize, u32)],
    ) -> Result<Vec<Option<FaultOutcome>>, TestCaseError> {
        let n = servers * per;
        let devices = (0..n)
            .map(|i| Device::new(DeviceId(i), DeviceProfile::v100(format!("g{i}")), 3))
            .collect();
        let mut pool = match round_robin {
            true => DevicePool::new(devices, |i| i % servers),
            false => DevicePool::new(devices, |i| i / per),
        };
        for (i, &idle) in idle.iter().take(n).enumerate() {
            pool.set_commissioned(i, !idle);
        }
        if pool.earliest_free().is_none() {
            pool.set_commissioned(n - 1, true);
        }
        // Clock and speed-factor bits of each device from its death on.
        let mut frozen: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut outcomes = Vec::new();
        for &draw in draws {
            let e = event(&pool, servers, draw);
            let want = expected(&pool, &e);
            let (alive, frontier) = (
                (0..n).map(|i| pool.is_alive(i)).collect::<Vec<_>>(),
                pool.frontier(),
            );
            let got = pool.apply(&e);
            prop_assert_eq!(shape(&got), want, "{:?}", e);
            match got.as_ref().map(|o| &o.effect) {
                Some(FaultEffect::Lost(killed)) => {
                    prop_assert!(
                        killed.iter().all(|&i| alive[i]),
                        "killed the dead: {:?}",
                        killed
                    );
                }
                Some(FaultEffect::Speed(_)) => prop_assert_eq!(got.as_ref().unwrap().at, frontier),
                _ => {}
            }
            if e.kind == FaultKind::ServerLoss {
                // All of the server's live members died, or none did.
                let live = |alive: &dyn Fn(usize) -> bool| {
                    let on = (0..n).filter(|&i| pool.server(i) == e.gpu);
                    on.filter(|&i| alive(i)).count()
                };
                let (before, after) = (live(&|i| alive[i]), live(&|i| pool.is_alive(i)));
                prop_assert!(
                    after == 0 || after == before,
                    "server {} half killed",
                    e.gpu
                );
            }
            prop_assert!(
                pool.earliest_free().is_some(),
                "nothing dispatchable after {:?}",
                e
            );
            // Dispatch one kernel, as a scheduler would between events.
            let g = pool.earliest_free().expect("checked above");
            pool.device_mut(g)
                .execute(KernelKind::Elementwise { elems: 1 << 12 });
            for (i, f) in frozen.iter_mut().enumerate() {
                let d = pool.device(i);
                let now = (d.now().secs().to_bits(), d.profile().speed_factor.to_bits());
                match f {
                    Some(then) => prop_assert_eq!(*then, now, "dead device {} moved", i),
                    None if !pool.is_alive(i) => *f = Some(now),
                    None => {}
                }
            }
            outcomes.push(got);
        }
        Ok(outcomes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_interpreter_applies_the_policy_table(
            shape in (1usize..=4, 1usize..=4, 0u8..2),
            idle in collection::vec(0u8..4, 16),
            draws in collection::vec((0u8..7, 0usize..64, 1u32..80), 1..48),
        ) {
            let shape = (shape.0, shape.1, shape.2 == 1);
            let idle: Vec<bool> = idle.iter().map(|&x| x == 0).collect();
            let first = drive(shape, &idle, &draws)?;
            prop_assert_eq!(first, drive(shape, &idle, &draws)?, "replay diverged");
        }
    }
}

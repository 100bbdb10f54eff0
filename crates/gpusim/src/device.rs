//! The simulated device: a virtual clock plus a seeded jitter process.

use crate::cost::{kernel_time, KernelKind};
use crate::profile::DeviceProfile;
use crate::SimTime;
use asgd_stats::dist::standard_normal;
use rand::{rngs::StdRng, SeedableRng};

/// Identifier of a device within a server (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// A simulated GPU: profile + virtual clock + jitter state.
///
/// `execute` charges a kernel: it computes the analytic duration from the
/// profile, perturbs it with the device's jitter process, advances the clock,
/// and returns the perturbed duration. The jitter RNG is seeded from
/// `(server seed, device id)`, so a fixed seed reproduces the exact timing
/// trace regardless of how threads interleave in real time.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    profile: DeviceProfile,
    clock: SimTime,
    kernels_executed: u64,
    rng: StdRng,
    phase: f64,
    /// Speed changes scheduled for a future sim time, sorted by time
    /// ascending (see [`Device::schedule_speed_factor`]).
    pending_speed: Vec<(SimTime, f64)>,
}

impl Device {
    /// Creates a device with its own jitter stream derived from `seed`.
    pub fn new(id: DeviceId, profile: DeviceProfile, seed: u64) -> Self {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(id.0 as u64 + 1));
        // A random phase decorrelates the slow drift across devices.
        let phase = rand::Rng::gen_range(&mut rng, 0.0..std::f64::consts::TAU);
        Self {
            id,
            profile,
            clock: SimTime::ZERO,
            kernels_executed: 0,
            rng,
            phase,
            pending_speed: Vec::new(),
        }
    }

    /// Device id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Capability profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total kernels charged so far.
    pub fn kernels_executed(&self) -> u64 {
        self.kernels_executed
    }

    /// The multiplicative jitter factor for the next kernel, consuming one
    /// RNG draw. Always positive; 1.0 when the jitter model is `NONE`.
    fn next_jitter(&mut self) -> f64 {
        let j = &self.profile.jitter;
        let osc = if j.osc_amplitude > 0.0 {
            1.0 + j.osc_amplitude
                * (std::f64::consts::TAU * self.kernels_executed as f64 / j.osc_period + self.phase)
                    .sin()
        } else {
            1.0
        };
        let noise = if j.lognormal_sigma > 0.0 {
            (j.lognormal_sigma * standard_normal(&mut self.rng)).exp()
        } else {
            1.0
        };
        osc * noise
    }

    /// Applies every pending speed change whose scheduled time is at or
    /// before `now` (the start of the next kernel). Later changes win when
    /// several are due at once.
    fn apply_due_speed_changes(&mut self, now: SimTime) {
        while let Some(&(at, factor)) = self.pending_speed.first() {
            if at.secs() > now.secs() {
                break;
            }
            self.profile.speed_factor = factor;
            self.pending_speed.remove(0);
        }
    }

    /// Charges one kernel: advances the clock by the perturbed duration and
    /// returns that duration in seconds.
    pub fn execute(&mut self, kind: KernelKind) -> f64 {
        if !self.pending_speed.is_empty() {
            self.apply_due_speed_changes(self.clock);
        }
        let base = kernel_time(&self.profile, kind);
        let jitter = self.next_jitter();
        self.kernels_executed += 1;
        let dt = base * jitter;
        self.clock = self.clock + dt;
        dt
    }

    /// Charges a batch of kernels issued back-to-back, returning the total
    /// duration. Equivalent to calling [`Device::execute`] on each.
    pub fn execute_all(&mut self, kinds: &[KernelKind]) -> f64 {
        kinds.iter().map(|&k| self.execute(k)).sum()
    }

    /// Charges a whole epoch of kernels at once with a framework-level
    /// duration `multiplier` (e.g. TensorFlow's slower epoch execution) and
    /// an additive `extra` launch-overhead delta (kernel fusion savings are
    /// negative, cross-manager contention positive). The jitter stream is
    /// consumed exactly as per-kernel execution would; the clock advances by
    /// `max(0, Σ perturbed durations · multiplier + extra)`, which is
    /// returned.
    pub fn charge_epoch(&mut self, kinds: &[KernelKind], multiplier: f64, extra: f64) -> f64 {
        let mut total = 0.0;
        for &k in kinds {
            if !self.pending_speed.is_empty() {
                // A scheduled speed change landing mid-epoch applies from
                // the first kernel *starting* at or after its time — the
                // kernel in flight when the change fires keeps its old
                // price, it is never re-charged retroactively. Boundary
                // times track compute progress (`total · multiplier`); the
                // additive launch-overhead `extra` is charged at epoch end
                // as before.
                self.apply_due_speed_changes(self.clock + total * multiplier);
            }
            let base = kernel_time(&self.profile, k);
            let jitter = self.next_jitter();
            self.kernels_executed += 1;
            total += base * jitter;
        }
        let dt = (total * multiplier + extra).max(0.0);
        self.clock = self.clock + dt;
        dt
    }

    /// Advances the clock to `t` if `t` is later (e.g. waiting at a barrier
    /// or for a peer transfer to complete). Returns the wait duration (≥ 0).
    ///
    /// Waiting through a scheduled speed change activates it: any pending
    /// change whose time is at or before the new clock takes effect for the
    /// kernels that follow.
    pub fn advance_to(&mut self, t: SimTime) -> f64 {
        let wait = (t - self.clock).max(0.0);
        self.clock = self.clock.max(t);
        if !self.pending_speed.is_empty() {
            self.apply_due_speed_changes(self.clock);
        }
        wait
    }

    /// Rolls the clock back to `t` if `t` is earlier — the cancellation
    /// primitive: work already *charged* to the device is revoked from `t`
    /// onward and the device frees at `t` instead (a hedged request's losing
    /// replica stops computing the moment the winner completes). Jitter
    /// state stays consumed — a cancelled kernel still advanced the RNG, so
    /// the timing trace remains a pure function of the kernel sequence, not
    /// of which results were kept. Returns the reclaimed seconds (≥ 0).
    pub fn rollback_to(&mut self, t: SimTime) -> f64 {
        let reclaimed = (self.clock - t).max(0.0);
        self.clock = SimTime(self.clock.secs().min(t.secs().max(0.0)));
        reclaimed
    }

    /// Schedules a speed-factor change at sim time `at` — models thermal
    /// throttling, DVFS state changes, or co-tenant interference.
    ///
    /// The change takes effect for the first kernel *starting* at or after
    /// `at` — never retroactively: a kernel (or epoch portion) already in
    /// flight when `at` passes keeps its original duration. If the clock is
    /// already past `at`, the change applies from the current time (the next
    /// charged kernel), which is the non-retroactive reading of "change the
    /// speed now".
    pub fn schedule_speed_factor(&mut self, at: SimTime, factor: f64) {
        assert!(factor > 0.0, "speed factor must be positive");
        self.pending_speed.push((at, factor));
        self.pending_speed
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    }
}

/// Builds the devices of a server from profiles, all jitter streams derived
/// from one `seed`.
pub fn build_server(profiles: &[DeviceProfile], seed: u64) -> Vec<Device> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, p)| Device::new(DeviceId(i), p.clone(), seed))
        .collect()
}

/// The paper's dispatch rule (§III, "the next batch goes to whichever GPU
/// frees first"): among the eligible `(index, device)` pairs, the index of
/// the smallest virtual clock, exact ties to the lowest index. `None` when
/// nothing is eligible — every caller filters (alive, commissioned, not the
/// primary) and decides itself what an empty set means.
pub fn earliest_free<'a>(eligible: impl IntoIterator<Item = (usize, &'a Device)>) -> Option<usize> {
    let mut best: Option<(SimTime, usize)> = None;
    for (i, d) in eligible {
        if best.is_none_or(|b| (d.now(), i) < b) {
            best = Some((d.now(), i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{heterogeneous_server, DeviceProfile, JitterModel};

    fn quiet(id: usize, speed: f64) -> Device {
        Device::new(
            DeviceId(id),
            DeviceProfile::v100(format!("g{id}"))
                .with_jitter(JitterModel::NONE)
                .with_speed(speed),
            7,
        )
    }

    #[test]
    fn clock_advances_by_execution() {
        let mut d = quiet(0, 1.0);
        let k = KernelKind::Gemm {
            m: 64,
            k: 128,
            n: 256,
        };
        let dt = d.execute(k);
        assert!(dt > 0.0);
        assert!((d.now().secs() - dt).abs() < 1e-15);
        assert_eq!(d.kernels_executed(), 1);
    }

    #[test]
    fn jitterless_device_is_exactly_analytic() {
        let mut d = quiet(0, 1.0);
        let k = KernelKind::SpMm { nnz: 5000, n: 128 };
        let want = crate::cost::kernel_time(d.profile(), k);
        assert_eq!(d.execute(k), want);
        assert_eq!(d.execute(k), want);
    }

    #[test]
    fn rollback_reclaims_cancelled_work_but_keeps_jitter_state() {
        let k = KernelKind::Gemm {
            m: 32,
            k: 32,
            n: 32,
        };
        // Two identical devices; one has a kernel cancelled mid-flight.
        let mut kept = Device::new(DeviceId(0), DeviceProfile::v100("a"), 9);
        let mut cancelled = Device::new(DeviceId(0), DeviceProfile::v100("b"), 9);
        let t0 = kept.execute(k);
        let _ = cancelled.execute(k);
        let cancel_at = SimTime(t0 * 0.25);
        let reclaimed = cancelled.rollback_to(cancel_at);
        assert!((reclaimed - t0 * 0.75).abs() < 1e-15);
        assert_eq!(cancelled.now(), cancel_at);
        // Rolling back to a later time is a no-op.
        assert_eq!(cancelled.rollback_to(SimTime(100.0)), 0.0);
        assert_eq!(cancelled.now(), cancel_at);
        // The jitter stream was consumed by the cancelled kernel: the next
        // kernel on both devices draws the same (second) jitter value.
        let a = kept.execute(k);
        let b = cancelled.execute(k);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut d = quiet(0, 1.0);
        d.execute(KernelKind::Elementwise { elems: 1000 });
        let now = d.now();
        assert_eq!(d.advance_to(SimTime(now.secs() - 1.0)), 0.0);
        assert_eq!(d.now(), now);
        let wait = d.advance_to(now + 0.5);
        assert!((wait - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut d = Device::new(DeviceId(2), DeviceProfile::v100("g"), 42);
            (0..50)
                .map(|i| {
                    d.execute(KernelKind::SpMm {
                        nnz: 100 * (i + 1),
                        n: 64,
                    })
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_devices_have_different_jitter() {
        let mut a = Device::new(DeviceId(0), DeviceProfile::v100("a"), 42);
        let mut b = Device::new(DeviceId(1), DeviceProfile::v100("b"), 42);
        let k = KernelKind::Gemm {
            m: 32,
            k: 32,
            n: 32,
        };
        let ta: Vec<f64> = (0..10).map(|_| a.execute(k)).collect();
        let tb: Vec<f64> = (0..10).map(|_| b.execute(k)).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn heterogeneous_server_reproduces_fig1_gap() {
        // Same identical batch on every GPU of the 4-V100 server: the
        // fastest-to-slowest epoch gap should be ≈32% (±jitter).
        let devices = &mut build_server(&heterogeneous_server(4), 1234);
        let batch: Vec<KernelKind> = vec![
            KernelKind::H2d { bytes: 1 << 20 },
            KernelKind::SpMm {
                nnz: 20_000,
                n: 128,
            },
            KernelKind::Gemm {
                m: 256,
                k: 128,
                n: 6700,
            },
            KernelKind::Softmax {
                rows: 256,
                cols: 6700,
            },
            KernelKind::Gemm {
                m: 128,
                k: 256,
                n: 6700,
            },
            KernelKind::SpMmTn {
                nnz: 20_000,
                n: 128,
            },
            KernelKind::Elementwise { elems: 1 << 20 },
        ];
        let mut times = Vec::new();
        for d in devices.iter_mut() {
            let mut total = 0.0;
            for _ in 0..50 {
                total += d.execute_all(&batch);
            }
            times.push(total);
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let gap = (max - min) / min;
        assert!((0.25..0.40).contains(&gap), "gap {gap}");
    }

    #[test]
    fn charge_epoch_equals_execute_all_at_unit_multiplier() {
        let kinds = [
            KernelKind::SpMm { nnz: 500, n: 64 },
            KernelKind::Gemm {
                m: 32,
                k: 64,
                n: 128,
            },
            KernelKind::Elementwise { elems: 4096 },
        ];
        let mut a = Device::new(DeviceId(0), DeviceProfile::v100("a"), 5);
        let mut b = Device::new(DeviceId(0), DeviceProfile::v100("b"), 5);
        let ta = a.execute_all(&kinds);
        let tb = b.charge_epoch(&kinds, 1.0, 0.0);
        assert!((ta - tb).abs() < 1e-15);
        assert!((a.now().secs() - b.now().secs()).abs() < 1e-15);
    }

    #[test]
    fn charge_epoch_applies_multiplier_and_extra() {
        let kinds = [KernelKind::Gemm {
            m: 16,
            k: 16,
            n: 16,
        }];
        let mut a = quiet(0, 1.0);
        let base = crate::cost::kernel_time(a.profile(), kinds[0]);
        let dt = a.charge_epoch(&kinds, 1.5, 2e-6);
        assert!((dt - (base * 1.5 + 2e-6)).abs() < 1e-15);
        // Negative extra can never move time backwards.
        let mut b = quiet(1, 1.0);
        let dt = b.charge_epoch(&kinds, 1.0, -1.0);
        assert_eq!(dt, 0.0);
    }

    /// Regression for the speed-factor/`advance_to` audit: a speed
    /// change scheduled mid-epoch must apply from its sim time onward, not
    /// retroactively to kernels already charged (the in-flight work).
    #[test]
    fn scheduled_speed_change_is_not_retroactive_within_an_epoch() {
        let k = KernelKind::Gemm {
            m: 64,
            k: 64,
            n: 64,
        };
        let base = crate::cost::kernel_time(quiet(0, 1.0).profile(), k);
        // Four identical kernels; the change lands between kernel 2 and 3.
        let mut d = quiet(0, 1.0);
        d.schedule_speed_factor(SimTime(base * 1.5), 0.5);
        let dt = d.charge_epoch(&[k, k, k, k], 1.0, 0.0);
        // Kernels 0 and 1 start before 1.5·base: old speed. Kernels 2 and 3
        // start at 2·base and later: half speed, double duration.
        assert!(
            (dt - (2.0 * base + 2.0 * 2.0 * base)).abs() < 1e-12,
            "dt {dt} vs expected {}",
            6.0 * base
        );
        // The retroactive (wrong) answer would have been 8·base;
        // the ignore-until-next-epoch answer 4·base.
    }

    #[test]
    fn scheduled_speed_change_in_the_past_applies_from_now() {
        let k = KernelKind::Gemm {
            m: 32,
            k: 32,
            n: 32,
        };
        let mut d = quiet(0, 1.0);
        let base = crate::cost::kernel_time(d.profile(), k);
        let t0 = d.execute(k);
        assert!((t0 - base).abs() < 1e-15);
        // Scheduled before the clock: the already-executed kernel keeps its
        // price, the next one runs at the new speed.
        d.schedule_speed_factor(SimTime::ZERO, 2.0);
        let t1 = d.execute(k);
        assert!((t1 - base / 2.0).abs() < 1e-15);
        assert!((d.now().secs() - (base + base / 2.0)).abs() < 1e-15);
    }

    #[test]
    fn advance_to_through_a_scheduled_change_activates_it() {
        let k = KernelKind::Elementwise { elems: 1 << 16 };
        let mut d = quiet(0, 1.0);
        let base = crate::cost::kernel_time(d.profile(), k);
        d.schedule_speed_factor(SimTime(1.0), 0.25);
        // Waiting at a barrier past t = 1 activates the throttle.
        d.advance_to(SimTime(2.0));
        assert_eq!(d.profile().speed_factor, 0.25);
        let dt = d.execute(k);
        assert!((dt - base * 4.0).abs() < 1e-15);
    }

    #[test]
    fn multiple_scheduled_changes_apply_in_time_order() {
        let k = KernelKind::Gemm {
            m: 16,
            k: 16,
            n: 16,
        };
        let mut d = quiet(0, 1.0);
        // Inserted out of order; both due at once — the latest wins.
        d.schedule_speed_factor(SimTime(0.5), 2.0);
        d.schedule_speed_factor(SimTime(0.1), 0.5);
        d.advance_to(SimTime(1.0));
        assert_eq!(d.profile().speed_factor, 2.0);
        let _ = d.execute(k);
    }

    #[test]
    fn speed_factor_scales_whole_epoch() {
        let mut fast = quiet(0, 1.0);
        let mut slow = quiet(1, 0.5);
        let k = KernelKind::Gemm {
            m: 64,
            k: 64,
            n: 64,
        };
        assert!((slow.execute(k) / fast.execute(k) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn earliest_free_takes_the_smallest_clock_and_breaks_ties_low() {
        let mut devices: Vec<Device> = (0..4).map(|i| quiet(i, 1.0)).collect();
        assert_eq!(earliest_free(devices.iter().enumerate()), Some(0));
        // Ties break to the lowest index whatever order the pairs come in.
        assert_eq!(earliest_free(devices.iter().enumerate().rev()), Some(0));
        devices[0].advance_to(SimTime(2.0));
        devices[1].advance_to(SimTime(1.0));
        devices[2].advance_to(SimTime(1.0));
        assert_eq!(earliest_free(devices.iter().enumerate()), Some(3));
        let busy = |skip: usize| {
            earliest_free(devices.iter().enumerate().filter(move |&(i, _)| i != skip))
        };
        assert_eq!(busy(3), Some(1));
        assert_eq!(earliest_free(devices.iter().enumerate().take(0)), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::profile::DeviceProfile;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn clock_is_monotone_under_any_kernel_sequence(
            seed in 0u64..10_000,
            sizes in proptest::collection::vec(1usize..100_000, 1..50),
        ) {
            let mut d = Device::new(DeviceId(0), DeviceProfile::v100("p"), seed);
            let mut prev = d.now();
            for s in sizes {
                d.execute(KernelKind::Elementwise { elems: s });
                prop_assert!(d.now() >= prev);
                prev = d.now();
            }
        }

        #[test]
        fn jitter_stays_near_unity(seed in 0u64..10_000) {
            // Drift ±4% and sigma 3%: durations must stay within a broad
            // but bounded band of the analytic time.
            let profile = DeviceProfile::v100("p");
            let analytic =
                crate::cost::kernel_time(&profile, KernelKind::Gemm { m: 64, k: 64, n: 64 });
            let mut d = Device::new(DeviceId(0), profile, seed);
            for _ in 0..200 {
                let t = d.execute(KernelKind::Gemm { m: 64, k: 64, n: 64 });
                prop_assert!(t > analytic * 0.7 && t < analytic * 1.4, "t {t} vs {analytic}");
            }
        }

        #[test]
        fn advance_to_never_rewinds(seed in 0u64..1_000, t1 in 0.0f64..10.0, t2 in 0.0f64..10.0) {
            let mut d = Device::new(DeviceId(0), DeviceProfile::v100("p"), seed);
            d.advance_to(SimTime(t1));
            let now = d.now();
            d.advance_to(SimTime(t2));
            prop_assert!(d.now() >= now);
            prop_assert!(d.now().secs() >= t1.max(t2) - 1e-12);
        }
    }
}

//! Wall time with the host's steal taken out.
//!
//! The end-to-end timings are wall seconds, so waiting (a hand-off between
//! the session and its lanes, a thread parked on a channel) and
//! parallelism count as a user sees them. On a shared virtual machine the
//! host also takes the vCPUs away in bursts ("steal"), and wall time swings
//! with that by up to a third from one minute to the next. The kernel
//! counts stolen time per CPU in `/proc/stat`; [`Stamp::until`] takes what
//! was stolen between two stamps, summed over all CPUs, out of the wall
//! time between them.
//!
//! A halted (idle) vCPU has nothing to steal, so the sum is the steal of
//! the vCPUs the program kept busy. While one thread runs it is exactly
//! the time that thread lost; while two lanes run and both are stolen at
//! once it takes out up to twice the wall time lost. The counter ticks in
//! clock ticks (1/100 s on Linux), so a single phase shorter than a tick is
//! corrected by zero or by a whole tick; over consecutive phases the
//! rounding does not add up.

#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// Wall-clock seconds, on the clock the caller passes in.
    pub wall: f64,
    /// Seconds stolen from all CPUs since boot.
    pub steal: f64,
}

impl Stamp {
    /// A stamp that starts a timed phase. The steal counter is read
    /// before the wall clock `now`, so that reading it is not timed.
    pub fn start(now: impl FnOnce() -> f64) -> Stamp {
        let steal = steal_s();
        Stamp { wall: now(), steal }
    }

    /// A stamp that ends a timed phase: the wall clock first.
    pub fn end(now: impl FnOnce() -> f64) -> Stamp {
        let wall = now();
        Stamp {
            wall,
            steal: steal_s(),
        }
    }

    /// Wall seconds from `self` to `later`, minus the steal between them.
    pub fn until(self, later: Stamp) -> f64 {
        (later.wall - self.wall) - (later.steal - self.steal)
    }

    /// Seconds stolen between `self` and `later`.
    pub fn stolen_until(self, later: Stamp) -> f64 {
        later.steal - self.steal
    }
}

/// The fastest of repeated timings of one short phase, each given by its
/// start and end stamps. Repeats during which the steal counter moved are
/// left out: its tick is coarser than such a phase, so taking a tick out
/// would make the phase look shorter than it was, or negative. If the
/// counter moved during every repeat, the fastest wall time is kept.
pub fn fastest(repeats: &[(Stamp, Stamp)]) -> f64 {
    let clean = repeats
        .iter()
        .filter(|(a, b)| a.stolen_until(*b) == 0.0)
        .map(|(a, b)| a.until(*b))
        .fold(f64::INFINITY, f64::min);
    if clean.is_finite() {
        return clean;
    }
    repeats
        .iter()
        .map(|(a, b)| b.wall - a.wall)
        .fold(f64::INFINITY, f64::min)
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Seconds stolen from all CPUs since boot: the eighth value of the
/// `cpu` line of `/proc/stat`, in clock ticks. Zero where there is no
/// such file, which leaves plain wall time.
fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    // SAFETY: sysconf reads a constant of the C library and touches no
    // memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks / if hz > 0 { hz as f64 } else { 100.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_never_runs_backwards() {
        let a = Stamp::start(|| 0.0);
        let b = Stamp::end(|| 1.0);
        assert!(a.stolen_until(b) >= 0.0);
        assert!(a.until(b) <= 1.0);
    }

    #[test]
    fn fastest_leaves_out_repeats_with_steal() {
        let at = |wall, steal| Stamp { wall, steal };
        let repeats = [
            (at(0.0, 0.0), at(0.003, 0.01)),
            (at(1.0, 0.01), at(1.004, 0.01)),
            (at(2.0, 0.01), at(2.005, 0.01)),
        ];
        assert_eq!(fastest(&repeats), 1.004 - 1.0);
        assert_eq!(fastest(&repeats[..1]), 0.003);
    }
}

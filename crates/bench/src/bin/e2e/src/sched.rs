//! The open-loop schedule: operations fall due at a fixed rate regardless
//! of how the system keeps up, and every latency is charged from the *due*
//! instant, so a stall is paid by every operation it delays and not only by
//! the one that hit it. The clock is a trait so the tests can inject a stall.

use std::time::{Duration, Instant};

/// Time since the schedule started.
pub trait Clock {
    fn now(&self) -> Duration;
    /// Returns once `now() >= t` (immediately when `t` has passed).
    fn wait_until(&self, t: Duration);
}

/// The wall clock, anchored at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&self, t: Duration) {
        // sleep most of the way, then yield: a bare sleep overshoots by the
        // timer slack (~60 µs here), which would be charged to every op
        const SPIN: Duration = Duration::from_micros(80);
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            if t - now > SPIN {
                std::thread::sleep(t - now - SPIN);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A fixed-rate schedule of `count` operations.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period: Duration,
    count: usize,
}

impl Schedule {
    /// `ops_per_s` operations a second for `seconds` seconds.
    pub fn new(ops_per_s: f64, seconds: f64) -> Self {
        assert!(ops_per_s > 0.0 && seconds > 0.0);
        Schedule {
            period: Duration::from_secs_f64(1.0 / ops_per_s),
            count: ((ops_per_s * seconds).round() as usize).max(1),
        }
    }

    /// Due instant of operation `i`.
    pub fn due(&self, i: usize) -> Duration {
        self.period.mul_f64(i as f64)
    }

    /// Drives the schedule: waits for each due instant, then calls
    /// `send(i, due)`. Never skips an operation — when `send` (or the
    /// system behind it) stalls, the backlog is sent back to back. Returns
    /// how late each send started, in µs.
    pub fn drive(&self, clock: &impl Clock, mut send: impl FnMut(usize, Duration)) -> Vec<f64> {
        let mut late_us = Vec::with_capacity(self.count);
        for i in 0..self.count {
            let due = self.due(i);
            clock.wait_until(due);
            late_us.push(micros(clock.now().saturating_sub(due)));
            send(i, due);
        }
        late_us
    }
}

/// Latency of an operation that fell due at `due` and completed at `done`.
pub fn since_due_us(due: Duration, done: Duration) -> f64 {
    micros(done.saturating_sub(due))
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn wait_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_instant() {
        // 1000 ops/s; every op takes 100 µs of service, op 3 stalls 5 ms
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let schedule = Schedule::new(1_000.0, 0.012);
        assert_eq!(schedule.count, 12);
        let ms = Duration::from_millis;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        let late = schedule.drive(&clock, |i, due| {
            let sent = clock.now();
            clock.advance(Duration::from_micros(100));
            if i == 3 {
                clock.advance(ms(5));
            }
            from_due.push(since_due_us(due, clock.now()));
            from_send.push(micros(clock.now() - sent));
        });
        // before the stall: on time, service time only
        assert_eq!(late[..4], [0.0; 4]);
        assert_eq!(from_due[..3], [100.0; 3]);
        assert_eq!(from_due[3], 5_100.0);
        // ops 4..8 fell due during the stall: sent late, back to back, and
        // charged the wait — a closed-loop timer would report 100 µs each
        assert_eq!(late[4], 4_100.0);
        assert_eq!(from_due[4], 4_200.0);
        assert_eq!(from_due[5], 3_300.0);
        assert!(from_send.iter().enumerate().all(|(i, &l)| i == 3 || l == 100.0));
        // the backlog drains 900 µs per op; by op 9 the schedule is on time
        assert_eq!(late[9], 0.0);
        assert_eq!(from_due[11], 100.0);
    }

    #[test]
    fn wall_clock_waits() {
        let clock = WallClock::start();
        clock.wait_until(Duration::from_millis(3));
        assert!(clock.now() >= Duration::from_millis(3));
        clock.wait_until(Duration::ZERO);
    }
}

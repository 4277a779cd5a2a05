//! The benchmark's one wall-clock reader. Every other module handles
//! timestamps as plain nanoseconds since this process's first reading, so
//! host time enters the benchmark here and nowhere else; the simulator's
//! results never depend on it.

use std::sync::OnceLock;

/// Monotonic nanoseconds since the first call in this process.
#[allow(clippy::disallowed_methods)]
pub fn now() -> u64 {
    // lint: allow(wall-clock) -- the benchmark's timer; it times calls into the simulator and never feeds them
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    // lint: allow(wall-clock) -- as above
    let origin = *ORIGIN.get_or_init(std::time::Instant::now);
    origin.elapsed().as_nanos() as u64
}

/// Runs `f`, returning its result and the `(start, end)` of the call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let start = now();
    let value = f();
    (value, (start, now()))
}

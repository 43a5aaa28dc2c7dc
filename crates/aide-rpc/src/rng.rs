//! The platform's one pseudo-random generator, xorshift64 (13, 7, 17): it
//! draws the chaos schedules' faults, the backoff jitter and the property
//! suites' cases. Each caller seeds it its own way, and a seed replays its
//! stream bit for bit, with no `rand` dependency.

/// A xorshift64 stream. Zero is its one absorbing state, which neither
/// constructor starts from.
#[derive(Debug, Clone)]
pub struct Xorshift64(u64);

impl Xorshift64 {
    /// The stream of `seed`: the state `seed | 1`.
    pub const fn new(seed: u64) -> Self {
        Xorshift64(seed | 1)
    }

    /// The stream whose state is `state`, which must not be zero.
    pub const fn from_state(state: u64) -> Self {
        assert!(state != 0, "xorshift64 never leaves the zero state");
        Xorshift64(state)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// A uniform draw in `[0, 1)`, from the top 53 bits of the next step.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

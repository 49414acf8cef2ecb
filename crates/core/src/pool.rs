//! The resource pools behind a network's output ports.
//!
//! Every RSIN in the paper schedules on the same status signal: each output
//! port carries a pool of identical resources, and "free resources exist at
//! this port" is what the shared bus broadcasts, the crossbar wave carries
//! and the Omega boxes propagate. [`PortPool`] is that state for every
//! network model, and the one owner of the resource-fault contract of
//! [`ResourceNetwork::fail_resource`](crate::ResourceNetwork::fail_resource).

use rsin_bitslice::{clear_bit, set_bit, tail_mask, words_for};

/// Busy count and up/down state of the resource pool behind each output
/// port, plus the packed status mask: bit `p` (64 ports per `u64`,
/// LSB-first, tail lanes zero) is set exactly when [`PortPool::has_free`]
/// holds for `p`, and every mutation keeps it so.
///
/// The fault contract lives here and nowhere else: [`PortPool::fail`]
/// zeroes the port's busy count (the network tears down its own circuits),
/// [`PortPool::repair`] brings the port back at full capacity, and
/// [`PortPool::vacate`] on a downed port is a no-op — the pool was cleared
/// while that task was in flight, so it holds nothing any more.
///
/// Every per-port method panics on an out-of-range port, except `fail` and
/// `repair`, which refuse it.
///
/// # Examples
///
/// ```
/// use rsin_core::PortPool;
///
/// let mut pool = PortPool::new(2, 1);
/// pool.occupy(0);
/// assert!(!pool.has_free(0) && pool.has_free(1));
/// assert!(pool.fail(1));
/// assert_eq!(pool.words(), &[0]);
/// assert!(pool.repair(1));
/// assert_eq!(pool.free(1), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortPool {
    capacity: u32,
    busy: Vec<u32>,
    up: Vec<bool>,
    free_words: Vec<u64>,
}

impl PortPool {
    /// `ports` pools of `capacity` resources each, all up and idle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(ports: usize, capacity: u32) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        let mut free_words = vec![u64::MAX; words_for(ports)];
        if let Some(last) = free_words.last_mut() {
            *last &= tail_mask(ports);
        }
        PortPool {
            capacity,
            busy: vec![0; ports],
            up: vec![true; ports],
            free_words,
        }
    }

    /// Number of ports.
    #[must_use]
    pub fn ports(&self) -> usize {
        self.busy.len()
    }

    /// Resources behind each port when it is up.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Resources of `port` currently busy (0 while the pool is down).
    #[must_use]
    pub fn busy(&self, port: usize) -> u32 {
        self.busy[port]
    }

    /// Whether `port`'s pool is online.
    #[must_use]
    pub fn is_up(&self, port: usize) -> bool {
        self.up[port]
    }

    /// Resources of `port` free to allocate (0 while the pool is down).
    #[must_use]
    pub fn free(&self, port: usize) -> u32 {
        if self.up[port] {
            self.capacity - self.busy[port]
        } else {
            0
        }
    }

    /// Whether `port` is up with a free resource — the status signal,
    /// evaluated from the scalar state.
    #[must_use]
    pub fn has_free(&self, port: usize) -> bool {
        self.up[port] && self.busy[port] < self.capacity
    }

    /// The status signal of every port, packed 64 per word.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.free_words
    }

    /// Marks one free resource of `port` busy.
    ///
    /// # Panics
    ///
    /// Panics if the port is down or has no free resource.
    pub fn occupy(&mut self, port: usize) {
        assert!(
            self.has_free(port),
            "port {port} has no free resource to occupy"
        );
        self.busy[port] += 1;
        self.refresh(port);
    }

    /// Returns one busy resource of `port` to the pool; a no-op while the
    /// pool is down, since failing it cleared its busy count.
    ///
    /// # Panics
    ///
    /// Panics if the port is up with no busy resource.
    pub fn vacate(&mut self, port: usize) {
        if !self.up[port] {
            return;
        }
        assert!(self.busy[port] > 0, "port {port} has no busy resource");
        self.busy[port] -= 1;
        self.refresh(port);
    }

    /// Takes `port`'s pool offline and zeroes its busy count. Returns
    /// `false`, changing nothing, when the port is out of range or down.
    pub fn fail(&mut self, port: usize) -> bool {
        if !self.up.get(port).copied().unwrap_or(false) {
            return false;
        }
        self.up[port] = false;
        self.busy[port] = 0;
        self.refresh(port);
        true
    }

    /// Brings `port`'s pool back online at full capacity (`fail` zeroed
    /// its busy count and `occupy` refuses a downed port). Returns
    /// `false`, changing nothing, when the port is out of range or up.
    pub fn repair(&mut self, port: usize) -> bool {
        if self.up.get(port).copied().unwrap_or(true) {
            return false;
        }
        self.up[port] = true;
        self.refresh(port);
        true
    }

    /// Re-evaluates `port`'s lane of the packed status mask.
    fn refresh(&mut self, port: usize) {
        if self.has_free(port) {
            set_bit(&mut self.free_words, port);
        } else {
            clear_bit(&mut self.free_words, port);
        }
    }
}

//! Chase's Algorithm 382 ("TWIDDLE", CACM 1970) — the winning seed
//! iterator of the paper (§3.2.1, Table 4).
//!
//! Chase's sequence is a combinatorial Gray code: consecutive combinations
//! differ by moving a single element (two mask bits change). The successor
//! step is a few pointer updates — far cheaper than Algorithm 515's
//! per-index unranking or Gosper's wide-word arithmetic — but the sequence
//! is inherently sequential.
//!
//! The paper parallelizes it exactly as [`ChaseTable`] does here: walk the
//! sequence once, snapshot the generator state at regular intervals, and
//! hand each worker a snapshot to resume from. The snapshot table depends
//! only on `d` (masks are XOR-applied to any client's seed), so it is
//! built once and reused across authentications; the paper excludes this
//! one-time cost from its timings and so do we.
//!
//! ## State representation
//!
//! The classic `twiddle` formulation keeps a workspace `p[0..=n+1]` of
//! integers and scans it linearly on every step. Its successor step only
//! ever tests an entry by sign class — positive, `0`, `-1`, or the `-2`
//! sentinel at `p[n+1]` — never writes `p[0]` or the sentinel, and
//! `p[b + 1] > 0` holds exactly when position `b` is in the combination.
//! So the whole workspace is two 256-bit bitmaps: the combination itself
//! and the set of positions whose entry is `0` (every other unchosen
//! position holds `-1`). Each linear scan of the workspace becomes a
//! `trailing_zeros` scan or a range clear over four `u64` words, and
//! [`ChaseState`] is a small `Copy` value with no heap allocation. The
//! emitted sequence is the twiddle's, bit for bit (the tests keep the
//! array form as an oracle).
//!
//! Most steps only move the lowest chosen position up by one place — 98%
//! of them at `m = 3` over 256 positions, in walks 85 steps long on
//! average. [`ChaseStream::fill_seeds`], the sweep loops' refill, writes
//! a whole walk as a loop of single-bit XORs and updates the state once
//! per walk, and [`ChaseTable::build`] skips walks the same way.

use crate::binomial::binomial;
use rbc_bits::U256;

/// Generator state for Chase's sequence of `m`-combinations of `n` items.
///
/// A `Copy` value of two 256-bit bitmaps: snapshotting or resuming the
/// sequence is a plain copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaseState {
    n: u16,
    /// The current combination: bit `b` is set when position `b` is
    /// chosen (the twiddle workspace's `p[b + 1] > 0`). Bits `≥ n` are
    /// always clear.
    mask: [u64; 4],
    /// Unchosen positions whose twiddle workspace entry `p[b + 1]` is
    /// `0`; every other unchosen position holds `-1`. Bits `≥ n` are
    /// always clear, so a scan for the first clear bit stops at `n` —
    /// the `-2` sentinel `p[n + 1]`.
    zero: [u64; 4],
    exhausted: bool,
}

/// Bits `0..k` of a word (`k ≤ 64`).
#[inline(always)]
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Bits `lo..hi` of a 256-bit bitmap (`lo ≤ hi ≤ 256`).
#[inline(always)]
fn range_bits(lo: usize, hi: usize) -> [u64; 4] {
    core::array::from_fn(|w| {
        let base = 64 * w;
        let below = |k: usize| low_bits(k.clamp(base, base + 64) - base);
        below(hi) & !below(lo)
    })
}

/// Index of the lowest set bit of `words` at or above `from`, or 256 when
/// there is none. `flip` inverts the words first (finds a clear bit).
#[inline(always)]
fn scan_from(words: &[u64; 4], from: usize, flip: u64) -> usize {
    let mut w = from / 64;
    if w >= 4 {
        return 256;
    }
    let mut word = (words[w] ^ flip) & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return 64 * w + word.trailing_zeros() as usize;
        }
        w += 1;
        if w == 4 {
            return 256;
        }
        word = words[w] ^ flip;
    }
}

/// Lowest set bit at or above `from`, or 256.
#[inline(always)]
fn next_one(words: &[u64; 4], from: usize) -> usize {
    scan_from(words, from, 0)
}

/// Lowest clear bit at or above `from`, or 256.
#[inline(always)]
fn next_zero(words: &[u64; 4], from: usize) -> usize {
    scan_from(words, from, u64::MAX)
}

#[inline(always)]
fn has_bit(words: &[u64; 4], b: usize) -> bool {
    (words[b / 64] >> (b % 64)) & 1 == 1
}

#[inline(always)]
fn flip_bit(words: &mut [u64; 4], b: usize) {
    words[b / 64] ^= 1u64 << (b % 64);
}

impl ChaseState {
    /// Initializes the sequence for `m` out of `n` positions (`n ≤ 256`).
    /// The initial combination is the top `m` positions
    /// `{n-m, …, n-1}`, per the algorithm's canonical start.
    pub fn new(n: u16, m: u16) -> Self {
        assert!(n <= 256, "at most 256 positions");
        assert!(m <= n, "m must be at most n");
        let (n_us, m_us) = (n as usize, m as usize);
        ChaseState {
            n,
            mask: range_bits(n_us - m_us, n_us),
            zero: range_bits(0, n_us - m_us),
            exhausted: false,
        }
    }

    /// The current combination as a bit mask.
    #[inline]
    pub fn mask(&self) -> U256 {
        U256::from_limbs(self.mask)
    }

    /// Number of positions the sequence draws from.
    pub fn universe(&self) -> u16 {
        self.n
    }

    /// Whether the sequence has been fully enumerated.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Advances to the next combination. Returns `false` when the sequence
    /// is exhausted (the current mask is then no longer meaningful).
    ///
    /// Exactly two mask bits change on every successful step: one position
    /// enters the combination and one leaves. The step costs a fixed
    /// number of word operations, whatever `n` and `m` are.
    #[inline]
    pub fn advance(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let n = self.n as usize;
        // The twiddle's first scan: the lowest chosen position `j`.
        let j = next_one(&self.mask, 0);
        if j >= n {
            // m = 0: the single empty combination.
            self.exhausted = true;
            return false;
        }
        let (set_pos, clear_pos);
        if j > 0 && has_bit(&self.zero, j - 1) {
            // The entry below `j` is 0: every lower entry becomes -1,
            // `j` leaves (its entry becomes 0) and position 0 enters.
            let below = range_bits(0, j);
            for (z, b) in self.zero.iter_mut().zip(below) {
                *z &= !b;
            }
            flip_bit(&mut self.zero, j);
            set_pos = 0;
            clear_pos = j;
        } else {
            // `e` ends the run of chosen positions starting at `j`; `f`
            // is the first entry at or above `e` that is not 0.
            let e = next_zero(&self.mask, j);
            let f = next_zero(&self.zero, e);
            if f >= n {
                // The scan reached the sentinel.
                self.exhausted = true;
                return false;
            }
            if j > 0 {
                flip_bit(&mut self.zero, j - 1);
            }
            if f > e {
                let skipped = range_bits(e, f);
                for (z, b) in self.zero.iter_mut().zip(skipped) {
                    *z &= !b;
                }
            }
            if has_bit(&self.mask, f) {
                // `f` is chosen: it moves down to `e`, leaving a 0.
                flip_bit(&mut self.zero, f);
                set_pos = e;
                clear_pos = f;
            } else {
                // `f` holds -1: the top of the run moves up to `f`.
                set_pos = f;
                clear_pos = e - 1;
            }
        }

        debug_assert!(!has_bit(&self.mask, set_pos), "set position already present");
        debug_assert!(has_bit(&self.mask, clear_pos), "clear position absent");
        flip_bit(&mut self.mask, set_pos);
        flip_bit(&mut self.mask, clear_pos);
        true
    }

    /// How many of the next steps only move the lowest chosen position up
    /// by one place: it walks alone while the positions above it are
    /// neither chosen nor `0` in the workspace. At `m = 3` over 256
    /// positions 98% of all steps fall in such walks, 85 steps long on
    /// average.
    #[inline]
    fn walk_len(&self) -> usize {
        let n = self.n as usize;
        let j = next_one(&self.mask, 0);
        if self.exhausted || j >= n || (j > 0 && has_bit(&self.zero, j - 1)) {
            return 0;
        }
        let blocked: [u64; 4] = core::array::from_fn(|w| self.mask[w] | self.zero[w]);
        next_one(&blocked, j + 1).min(n) - j - 1
    }

    /// Takes `steps` steps of a walk (at most [`walk_len`]) at once,
    /// leaving exactly the state that many [`advance`] calls would, and
    /// returns the position the walk started from: the combinations it
    /// passed through are the current one with that position replaced by
    /// each of the next `steps - 1` positions.
    ///
    /// [`walk_len`]: ChaseState::walk_len
    /// [`advance`]: ChaseState::advance
    #[inline]
    fn walk(&mut self, steps: usize) -> usize {
        debug_assert!(steps >= 1 && steps <= self.walk_len());
        let j = next_one(&self.mask, 0);
        flip_bit(&mut self.mask, j);
        flip_bit(&mut self.mask, j + steps);
        // Each step from a position `p > 0` set the entry below `p` to 0.
        let zeroed = range_bits(j.max(1) - 1, j + steps - 1);
        for (z, b) in self.zero.iter_mut().zip(zeroed) {
            *z |= b;
        }
        j
    }
}

/// A bounded stream over a contiguous run of Chase's sequence.
#[derive(Clone, Debug)]
pub struct ChaseStream {
    state: ChaseState,
    remaining: u128,
}

impl ChaseStream {
    /// Streams the entire sequence of weight-`d` masks over 256 positions.
    pub fn new_full(d: u32) -> Self {
        ChaseStream { state: ChaseState::new(256, d as u16), remaining: binomial(256, d) }
    }

    /// Resumes from a snapshot, limited to `count` masks.
    pub fn from_snapshot(state: ChaseState, count: u128) -> Self {
        ChaseStream { state, remaining: count }
    }

    /// Number of masks left in the stream.
    pub fn remaining(&self) -> u128 {
        self.remaining
    }

    /// The generator state at the stream's current position: the next
    /// mask this stream would yield. Together with [`remaining`], this
    /// is a complete resume point.
    ///
    /// [`remaining`]: ChaseStream::remaining
    pub fn state(&self) -> &ChaseState {
        &self.state
    }

    /// A checkpoint of the stream's current position: feeding the pair
    /// back into [`ChaseStream::from_snapshot`] yields exactly the masks
    /// this stream has not yet produced — no gaps, no duplicates. This
    /// is what lets a supervisor re-dispatch only the unswept remainder
    /// of a failed shard.
    pub fn snapshot(&self) -> (ChaseState, u128) {
        (self.state, self.remaining)
    }

    /// Produces the next mask, advancing the underlying generator.
    #[inline]
    pub fn next_mask(&mut self) -> Option<U256> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.state.mask();
        if self.remaining > 0 && !self.state.advance() {
            // The caller asked for more masks than the sequence holds.
            self.remaining = 0;
        }
        Some(out)
    }

    /// Writes `base ^ mask` for the next masks into `out` from the front
    /// and returns how many were written; fewer than `out.len()` only
    /// when the stream runs out (then 0 forever after).
    ///
    /// This is the sweep loops' refill: candidate seeds go straight into
    /// the caller's buffer, and the stream ends up exactly where the same
    /// number of [`next_mask`] calls would leave it, so snapshots and
    /// batch boundaries are unchanged. Pass `U256::ZERO` as `base` for
    /// the bare masks.
    ///
    /// [`next_mask`]: ChaseStream::next_mask
    #[inline]
    pub fn fill_seeds(&mut self, base: &U256, out: &mut [U256]) -> usize {
        let take = usize::try_from(self.remaining).map_or(out.len(), |r| r.min(out.len()));
        if take == 0 {
            return 0;
        }
        // The generator advances past every mask it emits except the
        // stream's last.
        let advances = if take as u128 == self.remaining { take - 1 } else { take };
        let mut state = self.state;
        self.remaining -= take as u128;
        let mut i = 0;
        while i < take {
            let walk = if i < advances { state.walk_len().min(advances - i) } else { 0 };
            if walk > 0 {
                // The walk's masks differ from the current one only in
                // where its lowest position sits.
                let current = *base ^ state.mask();
                let from = state.walk(walk);
                let rest = current.flip_bit(from);
                for (t, slot) in out[i..i + walk].iter_mut().enumerate() {
                    *slot = rest.flip_bit(from + t);
                }
                i += walk;
                continue;
            }
            out[i] = *base ^ state.mask();
            if i < advances && !state.advance() {
                // The caller asked for more masks than the sequence holds.
                self.remaining = 0;
                self.state = state;
                return i + 1;
            }
            i += 1;
        }
        self.state = state;
        take
    }
}

impl Iterator for ChaseStream {
    type Item = U256;

    fn next(&mut self) -> Option<U256> {
        self.next_mask()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, usize::try_from(self.remaining).ok())
    }
}

/// Precomputed snapshot table: `workers` evenly spaced resume points into
/// the weight-`d` Chase sequence (§3.2.1's "array of saved states").
#[derive(Clone, Debug)]
pub struct ChaseTable {
    snapshots: Vec<ChaseState>,
    /// Masks covered by each snapshot: `counts[i]` for worker `i`.
    counts: Vec<u128>,
    d: u32,
}

impl ChaseTable {
    /// Walks the sequence once, saving a state every `total/workers` masks
    /// (earlier workers take the remainder, so loads differ by at most 1 —
    /// "each state is evenly spread … so that threads have equal
    /// workloads").
    ///
    /// Cost: one full sequential enumeration of `C(256, d)` states. Build
    /// it once per `d` and reuse across clients.
    pub fn build(d: u32, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let total = binomial(256, d);
        let workers_u = workers as u128;
        let mut snapshots = Vec::with_capacity(workers);
        let mut counts = Vec::with_capacity(workers);
        let mut st = ChaseState::new(256, d as u16);
        let mut consumed: u128 = 0;
        for w in 0..workers_u {
            let start = total * w / workers_u;
            let end = total * (w + 1) / workers_u;
            if start >= total || start == end {
                counts.push(0);
                snapshots.push(st);
                continue;
            }
            while consumed < start {
                let walk = (st.walk_len() as u128).min(start - consumed);
                if walk > 0 {
                    st.walk(walk as usize);
                    consumed += walk;
                    continue;
                }
                let ok = st.advance();
                debug_assert!(ok, "sequence exhausted prematurely");
                consumed += 1;
            }
            snapshots.push(st);
            counts.push(end - start);
        }
        ChaseTable { snapshots, counts, d }
    }

    /// Number of workers the table was built for.
    pub fn workers(&self) -> usize {
        self.snapshots.len()
    }

    /// The Hamming distance this table enumerates.
    pub fn distance(&self) -> u32 {
        self.d
    }

    /// Number of masks worker `w` owns.
    pub fn count(&self, w: usize) -> u128 {
        self.counts[w]
    }

    /// A resumable stream for worker `w`.
    pub fn stream(&self, w: usize) -> ChaseStream {
        ChaseStream::from_snapshot(self.snapshots[w], self.counts[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumerates_exactly_c_n_m_distinct_combinations() {
        for (n, m) in [(8u16, 3u16), (10, 5), (6, 1), (6, 6), (5, 0)] {
            let mut st = ChaseState::new(n, m);
            let mut seen = HashSet::new();
            loop {
                let mask = st.mask();
                assert_eq!(mask.count_ones(), m as u32);
                assert!(mask.leading_zeros() >= 256 - n as u32, "mask within n positions");
                assert!(seen.insert(mask), "duplicate combination {mask:?}");
                if !st.advance() {
                    break;
                }
            }
            let expect = crate::binomial::binomial_checked(n as u64, m as u64).unwrap();
            assert_eq!(seen.len() as u128, expect, "C({n},{m})");
            assert!(st.is_exhausted());
        }
    }

    #[test]
    fn consecutive_masks_differ_in_exactly_two_bits() {
        let mut st = ChaseState::new(12, 4);
        let mut prev = st.mask();
        while st.advance() {
            let cur = st.mask();
            assert_eq!(prev.hamming_distance(&cur), 2);
            prev = cur;
        }
    }

    #[test]
    fn state_is_a_small_copy_value() {
        // The shard checkpoint docs quote this size.
        assert_eq!(std::mem::size_of::<ChaseState>(), 72);
    }

    #[test]
    fn advance_after_exhaustion_keeps_returning_false() {
        let mut st = ChaseState::new(4, 2);
        while st.advance() {}
        assert!(!st.advance());
        assert!(!st.advance());
    }

    #[test]
    fn full_stream_covers_weight_two_space() {
        let masks: HashSet<U256> = ChaseStream::new_full(2).collect();
        assert_eq!(masks.len() as u128, binomial(256, 2));
        assert!(masks.iter().all(|m| m.count_ones() == 2));
    }

    #[test]
    fn stream_remaining_counts_down() {
        let mut s = ChaseStream::new_full(1);
        assert_eq!(s.remaining(), 256);
        s.next_mask();
        assert_eq!(s.remaining(), 255);
    }

    #[test]
    fn weight_zero_stream() {
        let masks: Vec<U256> = ChaseStream::new_full(0).collect();
        assert_eq!(masks, vec![U256::ZERO]);
    }

    #[test]
    fn table_partitions_are_disjoint_and_cover() {
        for workers in [1usize, 3, 7, 64] {
            let table = ChaseTable::build(2, workers);
            let mut all = HashSet::new();
            let mut total = 0u128;
            for w in 0..workers {
                let chunk: Vec<U256> = table.stream(w).collect();
                assert_eq!(chunk.len() as u128, table.count(w));
                total += chunk.len() as u128;
                for m in chunk {
                    assert!(all.insert(m), "duplicate across workers");
                }
            }
            assert_eq!(total, binomial(256, 2), "workers={workers}");
            assert_eq!(all.len() as u128, binomial(256, 2));
        }
    }

    #[test]
    fn table_loads_are_balanced() {
        let table = ChaseTable::build(2, 7);
        let counts: Vec<u128> = (0..7).map(|w| table.count(w)).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn more_workers_than_masks() {
        // d = 0 has a single mask; extra workers get empty streams.
        let table = ChaseTable::build(0, 4);
        let total: u128 = (0..4).map(|w| table.stream(w).count() as u128).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn sequence_matches_gosper_space() {
        // Same set of masks as Gosper's enumeration for d = 1.
        let chase: HashSet<U256> = ChaseStream::new_full(1).collect();
        let gosper: HashSet<U256> = crate::gosper::GosperStream::new(1).collect();
        assert_eq!(chase, gosper);
    }

    #[test]
    fn snapshot_resumes_exactly_where_the_stream_stopped() {
        let total = binomial(256, 2);
        let mut stream = ChaseStream::new_full(2);
        let mut prefix = Vec::new();
        for _ in 0..1000 {
            prefix.push(stream.next_mask().unwrap());
        }
        let (state, count) = stream.snapshot();
        assert_eq!(count, total - 1000);
        let rest: Vec<U256> = ChaseStream::from_snapshot(state, count).collect();
        // The resumed stream continues the identical sequence.
        let mut replay = ChaseStream::new_full(2);
        let full: Vec<U256> = replay.by_ref().collect();
        assert_eq!(prefix, full[..1000]);
        assert_eq!(rest, full[1000..]);
    }

    /// The classic array form of the twiddle step, kept as the oracle the
    /// bitmap state must match bit for bit.
    #[derive(Clone, Debug)]
    struct Twiddle {
        /// Workspace `p[0..n+2]`.
        p: Vec<i32>,
        mask: U256,
        exhausted: bool,
    }

    impl Twiddle {
        fn new(n: u16, m: u16) -> Self {
            let n_us = n as usize;
            let (m_i, n_i) = (m as i32, n as i32);
            let mut p = vec![0i32; n_us + 2];
            p[0] = n_i + 1;
            let start = n_us - m as usize + 1;
            for (i, pi) in p.iter_mut().enumerate().take(n_us + 1).skip(start) {
                *pi = i as i32 + m_i - n_i;
            }
            p[n_us + 1] = -2;
            if m == 0 {
                p[1] = 1;
            }
            let mask = U256::from_set_bits(n_us - m as usize..n_us);
            Twiddle { p, mask, exhausted: false }
        }

        fn advance(&mut self) -> bool {
            if self.exhausted {
                return false;
            }
            let p = &mut self.p;
            let (set_pos, clear_pos);
            let mut j = 1usize;
            while p[j] <= 0 {
                j += 1;
            }
            if p[j - 1] == 0 {
                for i in (2..j).rev() {
                    p[i] = -1;
                }
                p[j] = 0;
                p[1] = 1;
                set_pos = 0;
                clear_pos = j - 1;
            } else {
                if j > 1 {
                    p[j - 1] = 0;
                }
                loop {
                    j += 1;
                    if p[j] <= 0 {
                        break;
                    }
                }
                let k = j - 1;
                let mut i = j;
                while p[i] == 0 {
                    p[i] = -1;
                    i += 1;
                }
                if p[i] == -1 {
                    p[i] = p[k];
                    set_pos = i - 1;
                    clear_pos = k - 1;
                    p[k] = -1;
                } else {
                    if i == p[0] as usize {
                        self.exhausted = true;
                        return false;
                    }
                    p[j] = p[i];
                    p[i] = 0;
                    set_pos = j - 1;
                    clear_pos = i - 1;
                }
            }
            self.mask.flip_bit_in_place(set_pos);
            self.mask.flip_bit_in_place(clear_pos);
            true
        }
    }

    /// Steps both generators `steps` times (or to exhaustion), asserting
    /// equal masks and equal `advance()` results; returns the steps taken.
    fn assert_lockstep(fast: &mut ChaseState, oracle: &mut Twiddle, steps: u128) -> u128 {
        let mut taken = 0;
        while taken < steps {
            assert_eq!(fast.mask(), oracle.mask, "mask after {taken} steps");
            let (a, b) = (fast.advance(), oracle.advance());
            assert_eq!(a, b, "advance() result after {taken} steps");
            if !a {
                break;
            }
            taken += 1;
        }
        taken
    }

    #[test]
    fn matches_the_twiddle_oracle_for_every_small_universe() {
        for n in 1u16..=16 {
            for m in 0..=n {
                let (mut fast, mut oracle) = (ChaseState::new(n, m), Twiddle::new(n, m));
                let steps = assert_lockstep(&mut fast, &mut oracle, u128::MAX);
                assert_eq!(steps + 1, binomial(n as u32, m as u32), "C({n},{m})");
                // Exhaustion is sticky in both.
                assert!(!fast.advance() && !oracle.advance());
                assert!(fast.is_exhausted());
            }
        }
    }

    #[test]
    fn matches_the_twiddle_oracle_over_the_full_rings() {
        for m in 0u16..=3 {
            let (mut fast, mut oracle) = (ChaseState::new(256, m), Twiddle::new(256, m));
            let steps = assert_lockstep(&mut fast, &mut oracle, u128::MAX);
            assert_eq!(steps + 1, binomial(256, m as u32), "ring m={m}");
        }
    }

    #[test]
    fn table_boundaries_match_the_twiddle_oracle() {
        for d in 0u32..=3 {
            let total = binomial(256, d);
            for workers in [1usize, 2, 3, 7] {
                let table = ChaseTable::build(d, workers);
                let mut oracle = Twiddle::new(256, d as u16);
                // Stepped one `advance()` at a time, where the table skips
                // whole walks.
                let mut stepped = ChaseState::new(256, d as u16);
                let mut rank = 0u128;
                for w in 0..workers {
                    if table.count(w) == 0 {
                        continue;
                    }
                    let start = total * w as u128 / workers as u128;
                    while rank < start {
                        assert!(oracle.advance() && stepped.advance());
                        rank += 1;
                    }
                    let first = table.stream(w).next_mask();
                    assert_eq!(first, Some(oracle.mask), "d={d} workers={workers} w={w}");
                    assert_eq!(table.stream(w).state(), &stepped, "d={d} workers={workers} w={w}");
                }
            }
        }
    }

    #[test]
    fn fill_seeds_matches_next_mask_and_leaves_the_same_resume_point() {
        let base = U256::from_u64(0xDEAD_BEEF).flip_bit(200);
        // Every small universe, the full rings, and streams longer and
        // shorter than their sequence.
        let mut cases: Vec<(u16, u16, u128)> = (1u16..=12)
            .flat_map(|n| (0..=n).map(move |m| (n, m, binomial(n as u32, m as u32))))
            .collect();
        cases.extend([(10, 3, 500), (10, 3, 37), (6, 0, 4), (200, 3, binomial(200, 3))]);
        cases.extend((1u16..=3).map(|m| (256, m, binomial(256, m as u32))));
        for (n, m, count) in cases {
            for batch in [1usize, 7, 64, 4096] {
                let mut stream = ChaseStream::from_snapshot(ChaseState::new(n, m), count);
                let mut by_mask = ChaseStream::from_snapshot(ChaseState::new(n, m), count);
                let mut buf = vec![U256::ZERO; batch];
                loop {
                    let k = stream.fill_seeds(&base, &mut buf);
                    for seed in &buf[..k] {
                        assert_eq!(Some(*seed ^ base), by_mask.next_mask(), "n={n} m={m}");
                    }
                    assert_eq!(stream.snapshot(), by_mask.snapshot(), "n={n} m={m} batch={batch}");
                    if k < batch {
                        break;
                    }
                }
                assert_eq!(by_mask.next_mask(), None, "n={n} m={m} batch={batch}");
                assert_eq!(stream.fill_seeds(&base, &mut buf), 0);
            }
        }
    }

    mod properties {
        use super::*;
        use crate::binomial::binomial_checked;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Splitting any `(n, m)` Chase range at an arbitrary
            /// checkpoint and resuming covers exactly the seed set of an
            /// uninterrupted sweep — no gaps, no duplicates.
            #[test]
            fn split_at_any_checkpoint_covers_exactly_once(
                n in 4u16..=24,
                m in 0u16..=4,
                split_frac in 0.0f64..=1.0,
            ) {
                let m = m.min(n);
                let total = binomial_checked(n as u64, m as u64).unwrap();
                let split = ((total as f64 * split_frac) as u128).min(total);

                let full: Vec<U256> = ChaseStream::from_snapshot(ChaseState::new(n, m), total).collect();
                prop_assert_eq!(full.len() as u128, total);

                let mut stream = ChaseStream::from_snapshot(ChaseState::new(n, m), total);
                let mut swept: Vec<U256> = Vec::new();
                for _ in 0..split {
                    swept.push(stream.next_mask().unwrap());
                }
                let (state, count) = stream.snapshot();
                prop_assert_eq!(count, total - split);
                let resumed: Vec<U256> = ChaseStream::from_snapshot(state, count).collect();

                // Concatenation reproduces the uninterrupted sweep
                // element-for-element: same coverage, same order, so
                // there can be neither gaps nor duplicates.
                swept.extend(resumed);
                prop_assert_eq!(swept, full);
            }

            /// Both implementations, resumed from a snapshot taken at a
            /// random rank, continue with the same masks and the same
            /// `advance()` results to the end of the sequence.
            #[test]
            fn resumed_snapshots_match_the_twiddle_oracle(
                n in 1u16..=80,
                m in 0u16..=3,
                rank_frac in 0.0f64..=1.0,
            ) {
                let m = m.min(n);
                let total = binomial_checked(n as u64, m as u64).unwrap();
                let rank = ((total as f64 * rank_frac) as u128).min(total - 1);
                let (mut fast, mut oracle) = (ChaseState::new(n, m), Twiddle::new(n, m));
                prop_assert_eq!(assert_lockstep(&mut fast, &mut oracle, rank), rank);
                let (mut fast_resumed, mut oracle_resumed) = (fast, oracle.clone());
                let left = assert_lockstep(&mut fast_resumed, &mut oracle_resumed, u128::MAX);
                prop_assert_eq!(rank + left + 1, total);
                // The originals were not disturbed by the resumed copies.
                prop_assert_eq!(assert_lockstep(&mut fast, &mut oracle, u128::MAX), left);
            }
        }
    }
}

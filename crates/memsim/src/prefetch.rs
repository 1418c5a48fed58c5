//! Hardware stream prefetcher.
//!
//! The Pentium 4 "includes hardware-based prefetching of data streams"
//! (Section 6.1). This model detects ascending sequential line streams in
//! the L2 miss stream and, once a stream is confirmed, pulls the next
//! `depth` lines into L2. It tracks a small number of concurrent streams,
//! as real prefetchers do.

/// A detected (or candidate) stream of sequential line addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stream {
    /// Next line address the stream expects to see.
    next_line: u64,
    /// Number of sequential hits observed; a stream is confirmed at 2.
    confidence: u8,
    /// Age counter for replacement.
    last_use: u64,
}

/// Detects sequential miss streams and proposes prefetch addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    line_bytes: u64,
    depth: u64,
    tick: u64,
    issued: u64,
}

impl StreamPrefetcher {
    /// Create a prefetcher for `line_bytes` lines pulling `depth` lines
    /// ahead, tracking up to 8 concurrent streams.
    #[must_use]
    pub fn new(line_bytes: u64, depth: u64) -> Self {
        StreamPrefetcher {
            streams: Vec::new(),
            max_streams: 8,
            line_bytes,
            depth,
            tick: 0,
            issued: 0,
        }
    }

    /// Observe a demand L2 miss at `addr`; returns the line addresses to
    /// prefetch (none while no stream is confirmed).
    pub fn observe_miss(&mut self, addr: u64) -> impl Iterator<Item = u64> {
        self.tick += 1;
        let line_bytes = self.line_bytes;
        let line = addr & !(line_bytes - 1);
        let mut count = 0;
        if let Some(s) = self.streams.iter_mut().find(|s| s.next_line == line) {
            s.confidence = s.confidence.saturating_add(1);
            s.next_line = line + line_bytes;
            s.last_use = self.tick;
            if s.confidence >= 2 {
                count = self.depth;
                self.issued += count;
            }
        } else {
            // New candidate stream starting after this line.
            let candidate = Stream {
                next_line: line + line_bytes,
                confidence: 1,
                last_use: self.tick,
            };
            if self.streams.len() < self.max_streams {
                self.streams.push(candidate);
            } else if let Some(oldest) = self.streams.iter_mut().min_by_key(|s| s.last_use) {
                *oldest = candidate;
            }
        }
        (1..=count).map(move |i| line + i * line_bytes)
    }

    /// Total prefetches proposed so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Forget all streams (GC / phase-change pollution model).
    pub fn flush(&mut self) {
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_is_detected_after_two_misses() {
        let mut p = StreamPrefetcher::new(128, 2);
        assert_eq!(
            p.observe_miss(0x0000).count(),
            0,
            "first miss: candidate only"
        );
        let pf: Vec<u64> = p.observe_miss(0x0080).collect();
        assert_eq!(pf, vec![0x0100, 0x0180], "second sequential miss confirms");
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = StreamPrefetcher::new(128, 2);
        for addr in [0x0000u64, 0x5000, 0x2000, 0x9000, 0x4000] {
            assert_eq!(p.observe_miss(addr).count(), 0);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn multiple_concurrent_streams() {
        let mut p = StreamPrefetcher::new(128, 1);
        assert_eq!(p.observe_miss(0x0000).count(), 0);
        assert_eq!(p.observe_miss(0x10000).count(), 0);
        assert_eq!(p.observe_miss(0x0080).count(), 1);
        assert_eq!(p.observe_miss(0x10080).count(), 1);
    }

    #[test]
    fn flush_forgets_streams() {
        let mut p = StreamPrefetcher::new(128, 1);
        assert_eq!(p.observe_miss(0x0000).count(), 0);
        p.flush();
        assert_eq!(
            p.observe_miss(0x0080).count(),
            0,
            "stream state was dropped"
        );
    }
}

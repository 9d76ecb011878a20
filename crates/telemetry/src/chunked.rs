//! The text buffer under both trace sinks.
//!
//! A traced run writes tens of megabytes of records, and a single `String`
//! holding them doubles its way there: at its last growth the capacity is
//! up to twice the text (≈ 115 MB for `trace_jsonl`'s 74 MB), and every
//! doubling copies all of it. [`ChunkedText`] keeps the text in chunks
//! instead. The first starts at [`FIRST_CHUNK`] bytes and doubles up to
//! [`CHUNK_BYTES`], so a short trace stays small; every later chunk is
//! allocated once at that size and never moves. A new chunk starts only
//! between records, so every chunk holds whole records — whole JSONL
//! lines, whole Perfetto events — and can be read, split into lines or
//! written out on its own.

use crate::json::LINE_CAPACITY;
use std::io;

/// Size of every chunk after the first, and the most the first grows to.
pub const CHUNK_BYTES: usize = 1 << 20;

/// Capacity of the first chunk when the first record arrives.
const FIRST_CHUNK: usize = 4 << 10;

/// A chunk takes another record only while it has this much room left:
/// more than any event's record, so records do not grow a chunk past its
/// allocation. A JSONL line is under [`LINE_CAPACITY`]; the Perfetto
/// objects of one event stay under four times that (pinned in
/// `perfetto.rs`). A record with a longer caller-supplied label is still
/// written whole, and grows its chunk as a `String` grows.
pub(crate) const RECORD_ROOM: usize = 4 * LINE_CAPACITY;

/// Text kept as a list of chunks that each end between records.
#[derive(Debug, Default)]
pub(crate) struct ChunkedText {
    chunks: Vec<String>,
}

impl ChunkedText {
    /// The chunk the next record is to be appended to, with at least
    /// [`RECORD_ROOM`] spare. Append exactly one whole record to it.
    #[inline]
    pub(crate) fn record(&mut self) -> &mut String {
        let spare = |c: &String| c.capacity() - c.len();
        while self.chunks.last().is_none_or(|c| spare(c) < RECORD_ROOM) {
            self.make_room();
        }
        self.chunks.last_mut().expect("make_room leaves a chunk")
    }

    /// Doubles the first chunk (at most to [`CHUNK_BYTES`]) while it is
    /// smaller; past that, leaves the full chunk as it is and starts a fresh
    /// one.
    #[cold]
    fn make_room(&mut self) {
        match self.chunks.last_mut() {
            Some(last) if last.capacity() < CHUNK_BYTES => {
                last.reserve_exact((2 * last.capacity()).min(CHUNK_BYTES) - last.len());
            }
            Some(_) => self.chunks.push(String::with_capacity(CHUNK_BYTES)),
            None => self.chunks.push(String::with_capacity(FIRST_CHUNK)),
        }
    }

    /// The chunks, in order; concatenated they are the text.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &str> {
        self.chunks.iter().map(String::as_str)
    }

    /// Total length of the text in bytes.
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(String::len).sum()
    }

    /// Appends the whole text to `out`.
    pub(crate) fn push_to(&self, out: &mut String) {
        self.chunks().for_each(|c| out.push_str(c));
    }

    /// Writes the whole text to `w`, one `write_all` per chunk.
    pub(crate) fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.chunks().try_for_each(|c| w.write_all(c.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends `n` records of `len` bytes (the last one a newline).
    fn fill(t: &mut ChunkedText, n: usize, len: usize) {
        for _ in 0..n {
            let out = t.record();
            out.extend(std::iter::repeat_n('x', len - 1));
            out.push('\n');
        }
    }

    #[test]
    fn nothing_is_allocated_before_the_first_record() {
        let t = ChunkedText::default();
        assert_eq!(t.chunks.capacity(), 0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.chunks().count(), 0);
    }

    #[test]
    fn a_short_text_stays_in_a_small_first_chunk() {
        let mut t = ChunkedText::default();
        fill(&mut t, 10, 200);
        assert_eq!(t.chunks.len(), 1);
        assert_eq!(t.chunks[0].capacity(), FIRST_CHUNK);
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn the_first_chunk_doubles_then_chunks_are_fixed_and_end_between_records() {
        let mut t = ChunkedText::default();
        let (n, len) = (4 * CHUNK_BYTES / 200, 200);
        fill(&mut t, n, len);
        assert!(t.chunks.len() >= 4, "{} chunks", t.chunks.len());
        for (i, c) in t.chunks.iter().enumerate() {
            assert_eq!(c.capacity(), CHUNK_BYTES);
            if i + 1 < t.chunks.len() {
                assert!(c.len() > CHUNK_BYTES - RECORD_ROOM, "{}", c.len());
            }
            assert_eq!(c.len() % len, 0, "a record straddles a chunk");
            assert!(c.ends_with('\n'));
        }
        assert_eq!(t.len(), n * len);
        let mut whole = String::new();
        t.push_to(&mut whole);
        let mut written = Vec::new();
        t.write_to(&mut written).unwrap();
        assert_eq!(written, whole.as_bytes());
        assert_eq!(whole.lines().count(), n);
    }

    #[test]
    fn a_record_longer_than_the_room_is_kept_whole() {
        let mut t = ChunkedText::default();
        fill(&mut t, 1, FIRST_CHUNK - RECORD_ROOM);
        fill(&mut t, 1, 3 * RECORD_ROOM);
        fill(&mut t, 1, 10);
        assert_eq!(t.chunks.len(), 1, "the first chunk grows instead");
        assert_eq!(t.len(), FIRST_CHUNK + 2 * RECORD_ROOM + 10);
    }
}

//! A run's memory image, sized by what the run touches.
//!
//! A program addresses [`ExecLimits::memory_words`] words, but a run
//! holds only a prefix of them: a run from entry starts with the globals
//! image, a resumed run with its snapshot's written prefix
//! (`mem[..hwm]`). Every word past the buffer's end reads as zero — the
//! invariant snapshots already rest on, that memory past the write
//! high-water mark was never written. The bounds checks still measure
//! against the limit, never against the buffer:
//!
//! * address 0 and addresses at or past the limit trap `OutOfBounds`;
//! * an alloca that would end past the limit traps `StackOverflow`;
//! * below the limit but past the buffer's end, a load reads zero and a
//!   store or alloca grows the buffer (amortized doubling, capped at the
//!   limit), behind the hot path's one compare against the buffer
//!   length.
//! * A store that lands far past the buffer's end — where a corrupted
//!   pointer sends it — is kept aside, sparse, until the buffer grows
//!   over it. Growing over a gap of megabytes would zero-fill and keep
//!   resident memory no run reads.
//!
//! So a run's memory costs what it writes, not the limit: a campaign's
//! golden run, its snapshot capture and each worker's trial buffer hold
//! a few KiB where the default limit is 16 MiB. Both engines run on this
//! one type, so they share every memory semantic by construction.
//!
//! [`ExecLimits::memory_words`]: crate::ExecLimits::memory_words

use crate::exec::{Stop, Trap};
use crate::snapshot::SnapData;
use peppa_ir::Module;
use std::collections::BTreeMap;

/// A store past the buffer's end is far when its gap to the end is at
/// least this many words and at least the buffer's length.
const FAR_GAP: usize = 1 << 12;

/// The memory of one run: the touched prefix of the address space.
pub(crate) struct Image {
    words: Vec<u64>,
    /// Far stores (see the module doc), by address; every key is at or
    /// past `words`' end.
    far: BTreeMap<usize, u64>,
    /// High-water mark: no word at or past it has ever been written, so
    /// all read zero. Snapshots store (and compare) only the words below
    /// it.
    hwm: usize,
    /// `ExecLimits::memory_words`.
    limit: usize,
}

impl Image {
    /// An image whose written prefix is `words` (so `hwm = words.len()`).
    pub(crate) fn new(words: Vec<u64>, limit: usize) -> Image {
        assert!(
            words.len() <= limit,
            "initial image of {} words exceeds the {limit}-word memory limit",
            words.len()
        );
        Image {
            hwm: words.len(),
            words,
            far: BTreeMap::new(),
            limit,
        }
    }

    /// The hot path is one compare against the buffer's length. Past it,
    /// the trap check stays inline (a plain return in the dispatch
    /// loop) and only a far store's lookup goes out of line.
    #[inline(always)]
    pub(crate) fn read(&self, addr: u64) -> Result<u64, Stop> {
        if addr == 0 || addr >= self.words.len() as u64 {
            self.check(addr)?;
            return Ok(self.past_end(addr as usize));
        }
        // SAFETY: `0 < addr < words.len()` was just checked.
        Ok(unsafe { *self.words.get_unchecked(addr as usize) })
    }

    /// As [`read`](Self::read); growing the buffer is out of line.
    #[inline(always)]
    pub(crate) fn write(&mut self, addr: u64, value: u64) -> Result<(), Stop> {
        if addr == 0 || addr >= self.words.len() as u64 {
            self.check(addr)?;
            self.store_past_end(addr as usize, value);
            return Ok(());
        }
        // SAFETY: `0 < addr < words.len()` was just checked.
        unsafe { *self.words.get_unchecked_mut(addr as usize) = value };
        if addr as usize >= self.hwm {
            self.hwm = addr as usize + 1;
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn store_past_end(&mut self, a: usize, value: u64) {
        let len = self.words.len();
        if a - len >= len.max(FAR_GAP) {
            self.far.insert(a, value);
        } else {
            self.grow(a + 1);
            self.words[a] = value;
        }
        self.hwm = self.hwm.max(a + 1);
    }

    /// Word `a` past the buffer's end: a far store's, or zero.
    #[inline(always)]
    fn past_end(&self, a: usize) -> u64 {
        if self.far.is_empty() {
            0
        } else {
            self.far_word(a)
        }
    }

    #[cold]
    #[inline(never)]
    fn far_word(&self, a: usize) -> u64 {
        self.far.get(&a).copied().unwrap_or(0)
    }

    #[inline(always)]
    fn check(&self, addr: u64) -> Result<(), Stop> {
        if addr == 0 || addr >= self.limit as u64 {
            return Err(Stop::Trap(Trap::OutOfBounds { addr }));
        }
        Ok(())
    }

    /// Grows the buffer to at least `len` words, zero-filled: amortized
    /// doubling, capped at the limit. Far stores it now covers move in.
    fn grow(&mut self, len: usize) {
        let len = len.max(2 * self.words.len()).min(self.limit);
        self.words.resize(len, 0);
        let beyond = self.far.split_off(&len);
        for (a, v) in std::mem::replace(&mut self.far, beyond) {
            self.words[a] = v;
        }
    }

    /// Claims `words` (an `alloca` operand) stack words at `base`, the
    /// stack pointer, and zero-fills them. Returns the new stack pointer.
    pub(crate) fn alloca(&mut self, base: u64, words: u64) -> Result<u64, Stop> {
        let end = u64::try_from(words as i64)
            .ok()
            .and_then(|w| base.checked_add(w))
            .filter(|&end| end <= self.limit as u64)
            .ok_or(Stop::Trap(Trap::StackOverflow))? as usize;
        // The stack pointer never passes the buffer's end, so `base` lies
        // inside it, and growth fills the rest with zeros. Far stores the
        // allocation covers are zeroed by dropping them.
        let filled = end.min(self.words.len());
        if end > self.words.len() {
            self.far = self.far.split_off(&end);
            self.grow(end);
        }
        self.words[base as usize..filled].fill(0);
        self.hwm = self.hwm.max(end);
        Ok(end as u64)
    }

    /// Zeroes `[base, end)`, a popped frame's stack words (all below the
    /// high-water mark).
    pub(crate) fn clear(&mut self, base: usize, end: usize) {
        self.words[base..end].fill(0);
    }

    pub(crate) fn hwm(&self) -> usize {
        self.hwm
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// The words below the high-water mark: everything the run has
    /// written.
    pub(crate) fn written(&self) -> Vec<u64> {
        let mut mem = self.words[..self.hwm.min(self.words.len())].to_vec();
        mem.resize(self.hwm, 0);
        for (&a, &v) in &self.far {
            mem[a] = v;
        }
        mem
    }

    /// Whether this image equals checkpoint `cp`'s memory or, given the
    /// checkpoint's future read set, agrees with it on every word of the
    /// set. Each side reads zero past its end and past its high-water
    /// mark.
    pub(crate) fn matches(&self, cp: &SnapData, read_set: Option<&[u32]>) -> bool {
        let ours = |a: usize| match self.words.get(a) {
            Some(&w) => w,
            None => self.past_end(a),
        };
        let theirs = |a: usize| cp.mem.get(a).copied().unwrap_or(0);
        if let Some(set) = read_set {
            return set.iter().all(|&a| ours(a as usize) == theirs(a as usize));
        }
        let common = self.words.len().min(cp.hwm);
        self.words[..common] == cp.mem[..common]
            && (common..cp.hwm).all(|a| cp.mem[a] == self.past_end(a))
            // Anything this run wrote past the checkpoint's high-water
            // mark must have been zeroed again for the images to match.
            && self
                .words
                .get(cp.hwm..self.hwm.min(self.words.len()))
                .is_none_or(|rest| rest.iter().all(|&w| w == 0))
            && self.far.range(cp.hwm..).all(|(_, &v)| v == 0)
    }

    /// The whole address space, `limit` words long, for callers that
    /// diff final images.
    pub(crate) fn into_padded(mut self) -> Vec<u64> {
        self.words.resize(self.limit, 0);
        for (a, v) in std::mem::take(&mut self.far) {
            self.words[a] = v;
        }
        self.words
    }
}

/// The memory image a run starts from: the reserved null word, then each
/// global's `init` at its layout base, zeros elsewhere.
pub(crate) fn globals_image(module: &Module) -> Vec<u64> {
    let mut image = vec![0u64; module.globals_words() as usize];
    for (g, base) in module.globals.iter().zip(module.global_layout()) {
        let base = base as usize;
        image[base..base + g.init.len()].copy_from_slice(&g.init);
    }
    image
}

/// A reusable memory buffer for the compiled engine's trial runs and
/// resumes ([`crate::CompiledVm::run_amortized`],
/// [`crate::CompiledVm::resume_trial_amortized`]), one per worker
/// thread.
///
/// A trial's image holds only the words the trial touches; the scratch
/// keeps one buffer's capacity alive across trials, so a restore is
/// "clear, then copy the prefix" and allocates nothing once the buffer
/// has grown to the campaign's working size. The restored image is the
/// one a fresh run would start from.
#[derive(Default)]
pub struct ResumeScratch {
    buf: Vec<u64>,
}

impl ResumeScratch {
    pub fn new() -> ResumeScratch {
        ResumeScratch::default()
    }

    /// Takes the buffer out as an image holding `prefix`: its contents
    /// are discarded, its capacity reused.
    pub(crate) fn image(&mut self, prefix: &[u64], limit: usize) -> Image {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        buf.extend_from_slice(prefix);
        Image::new(buf, limit)
    }

    pub(crate) fn put_back(&mut self, image: Image) {
        self.buf = image.words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: usize = 1 << 21;

    fn checkpoint(mem: Vec<u64>) -> SnapData {
        SnapData {
            frames: Vec::new(),
            hwm: mem.len(),
            mem,
            memory_words: LIMIT,
            stack_ptr: 1,
            output: Vec::new(),
            dynamic: 0,
            value_dynamic: 0,
            exec_counts: Vec::new(),
        }
    }

    #[test]
    fn a_far_store_stays_sparse_until_the_buffer_grows_over_it() {
        let mut m = Image::new(vec![0; 8], LIMIT);
        m.write(5008, 7).unwrap();
        assert_eq!(m.words.len(), 8, "a far store does not grow the buffer");
        assert_eq!((m.read(5008), m.read(5007), m.hwm()), (Ok(7), Ok(0), 5009));
        let written = m.written();
        assert_eq!((written.len(), written[5008]), (5009, 7));
        // Near stores double the buffer until it covers the far word.
        for a in [108, 4000, 5000] {
            m.write(a, 1).unwrap();
        }
        assert!(m.far.is_empty() && m.words.len() > 5008);
        assert_eq!((m.read(5008), m.hwm()), (Ok(7), 5009));
    }

    #[test]
    fn an_alloca_zeroes_the_far_stores_it_covers() {
        let mut m = Image::new(vec![0; 8], LIMIT);
        m.write(6000, 5).unwrap();
        m.write(1 << 20, 9).unwrap();
        assert_eq!(m.alloca(8, 6100), Ok(6108));
        assert_eq!((m.read(6000), m.read(1 << 20)), (Ok(0), Ok(9)));
        let padded = m.into_padded();
        assert_eq!((padded.len(), padded[1 << 20]), (LIMIT, 9));
    }

    #[test]
    fn far_words_take_part_in_the_checkpoint_compare() {
        let cp = checkpoint(vec![0, 3, 0, 0]);
        let mut m = Image::new(vec![0, 3], LIMIT);
        assert!(m.matches(&cp, None), "words past either end read zero");
        m.write(1 << 20, 0).unwrap();
        assert!(m.matches(&cp, None), "a far store of zero changes nothing");
        m.write(1 << 20, 4).unwrap();
        assert!(!m.matches(&cp, None));
        assert!(m.matches(&cp, Some(&[1, 2])));
        assert!(!m.matches(&cp, Some(&[1, 1 << 20])));
        let cp = checkpoint(vec![0, 3, 0, 0, 0, 6]);
        let mut m = Image::new(vec![0, 3], LIMIT);
        m.write(5, 6).unwrap();
        assert!(m.matches(&cp, None));
    }
}

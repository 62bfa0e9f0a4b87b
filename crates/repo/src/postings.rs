//! Block-compressed posting lists — the E16 cold-path kernels.
//!
//! [`PostingList`] replaces the keyword index's `Vec<Posting>` per-term
//! storage with a representation built for the cold query path:
//!
//! * **Delta blocks** — postings are uvarint-delta-encoded in blocks of
//!   [`BLOCK_POSTINGS`], each with a [`BlockSkip`] carrying
//!   `(first_spec, max_spec, offset, count)` so multi-term intersection
//!   gallops over whole blocks instead of walking one posting at a time.
//! * **Dense bitmaps** — terms whose distinct specs pack densely into
//!   their id span seal into a spec-membership bitmap (word-wise AND
//!   intersection, O(1) membership) over a flat rank-indexed payload.
//!   The variant is chosen per term at seal time by density
//!   ([`prefers_bitmap`]).
//! * **Append tail** — new specs stay append-only and cheap:
//!   `append_sorted` pushes to an uncompressed tail, and the list seals
//!   lazily on first lookup. Incremental refreshes therefore keep their
//!   E13/E15 cost; the seal is paid once, on the first read after an
//!   append, and delta lists extend in place (new blocks) when the appended
//!   specs sort after the sealed ones.
//! * **In-place retraction and splice** — deleting or re-indexing one spec
//!   ([`PostingList::remove_spec`] / [`PostingList::insert_spec_postings`])
//!   never unseals and never decodes the whole list: a pending tail is
//!   edited as the vector it is, a delta list decodes, re-encodes and
//!   byte-splices only the skip-located block(s) that can hold the spec
//!   (later offsets shifted, an emptied block dropped, an overfull one
//!   split), and a bitmap flips one bit, moves the spec's payload range and
//!   fixes the `starts` / `word_ranks` suffix. The one list is rebuilt only
//!   when the edit flips its delta/bitmap preference or takes a bitmap's
//!   minimum or maximum spec, so a list's shape is always the one a fresh
//!   seal of the same postings would choose.
//!
//! Thread-safety mirrors the index's df memo: sealing happens under an
//! interior [`RwLock`] so concurrent readers (the worker pool's scatter
//! jobs) can share one index; appends and the in-place kernels take
//! `&mut self` and never lock.
//!
//! The module also owns [`QueryScratch`] / [`with_scratch`] — the
//! thread-local, arena-style per-query scratch that the search and
//! ranking layers reuse across the pool's scoped jobs to kill per-query
//! `Vec` churn.

use crate::repository::SpecId;
use parking_lot::{RwLock, RwLockReadGuard};
use ppwf_model::ids::{ModuleId, WorkflowId};
use serde::wire::{get_uvarint, put_uvarint};
use std::cell::RefCell;
use std::ops::Range;

/// One match location for a term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// Owning specification.
    pub spec: SpecId,
    /// Matching module.
    pub module: ModuleId,
    /// Privacy classification: the workflow that must be visible for this
    /// posting to be admissible.
    pub workflow: WorkflowId,
    /// Term frequency within the module's text (name tokens + tags).
    pub tf: u32,
}

/// Postings per sealed delta block. 128 keeps a block's decoded form in
/// two cache lines' worth of skip metadata and lets a selective
/// intersection skip thousands of postings per probe.
pub const BLOCK_POSTINGS: usize = 128;

/// A term seals into the bitmap variant only with at least this many
/// distinct specs — below it, the delta skips are already one probe.
pub const BITMAP_MIN_DISTINCT: usize = 64;

/// Density denominator: bitmap when `distinct * 4 >= span` (≥ 25 % of the
/// spec-id span populated). Sparser terms stay delta-encoded — a bitmap
/// over a sparse span wastes words and its payload gathers nothing
/// faster.
pub const BITMAP_DENSITY_DEN: u64 = 4;

/// Whether a list with `distinct` specs over an id `span` should seal as
/// a dense bitmap (see the two knobs above).
pub fn prefers_bitmap(distinct: usize, span: u64) -> bool {
    distinct >= BITMAP_MIN_DISTINCT && distinct as u64 * BITMAP_DENSITY_DEN >= span
}

/// Skip entry for one sealed delta block.
#[derive(Clone, Copy, Debug)]
pub struct BlockSkip {
    /// Spec id of the block's first posting.
    pub first_spec: u32,
    /// Spec id of the block's last posting (the block maximum — postings
    /// are sorted).
    pub max_spec: u32,
    /// Byte offset of the block in the encoded stream.
    pub offset: u32,
    /// Postings in the block (≤ [`BLOCK_POSTINGS`]).
    pub count: u32,
}

#[derive(Debug, Default)]
struct DeltaList {
    data: Vec<u8>,
    skips: Vec<BlockSkip>,
    len: usize,
    distinct: usize,
}

#[derive(Debug)]
struct BitmapList {
    /// Spec id of bit 0.
    min_spec: u32,
    /// Number of spec-id slots covered (`max_spec = min_spec + span - 1`).
    span: u32,
    words: Vec<u64>,
    /// Prefix popcounts: `word_ranks[w]` = set bits in `words[..w]`.
    word_ranks: Vec<u32>,
    /// Payload range per present spec, in rank order; `distinct + 1` long.
    starts: Vec<u32>,
    postings: Vec<Posting>,
    distinct: usize,
}

#[derive(Debug)]
enum Sealed {
    Delta(DeltaList),
    Bitmap(BitmapList),
}

#[derive(Debug, Default)]
struct Inner {
    sealed: Option<Sealed>,
    tail: Vec<Posting>,
}

/// A block-compressed posting list with an uncompressed append tail (see
/// the module docs for the representation and sealing discipline).
#[derive(Debug, Default)]
pub struct PostingList {
    inner: RwLock<Inner>,
}

/// Observable representation of a list — instrumentation for tests and
/// the E16 bench (delta/bitmap crossover, seal laziness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostingsShape {
    /// Unsealed appends pending (tail non-empty or never read).
    Unsealed,
    /// Sealed as uvarint delta blocks.
    Delta {
        /// Number of blocks.
        blocks: usize,
    },
    /// Sealed as a dense spec bitmap.
    Bitmap {
        /// Number of 64-bit words.
        words: usize,
    },
}

fn encode_block(data: &mut Vec<u8>, postings: &[Posting]) {
    let first = postings[0];
    put_uvarint(data, first.spec.0 as u64);
    put_uvarint(data, first.workflow.0 as u64);
    put_uvarint(data, first.module.0 as u64);
    put_uvarint(data, first.tf as u64);
    let mut prev = first;
    for p in &postings[1..] {
        let ds = p.spec.0 - prev.spec.0;
        put_uvarint(data, ds as u64);
        if ds == 0 {
            let dw = p.workflow.0 - prev.workflow.0;
            put_uvarint(data, dw as u64);
            if dw == 0 {
                put_uvarint(data, (p.module.0 - prev.module.0) as u64);
            } else {
                put_uvarint(data, p.module.0 as u64);
            }
        } else {
            put_uvarint(data, p.workflow.0 as u64);
            put_uvarint(data, p.module.0 as u64);
        }
        put_uvarint(data, p.tf as u64);
        prev = *p;
    }
}

impl BlockSkip {
    fn of(block: &[Posting], offset: usize) -> BlockSkip {
        BlockSkip {
            first_spec: block[0].spec.0,
            max_spec: block[block.len() - 1].spec.0,
            offset: offset as u32,
            count: block.len() as u32,
        }
    }
}

impl DeltaList {
    fn build(postings: &[Posting]) -> DeltaList {
        let mut d = DeltaList::default();
        d.push_blocks(postings);
        d
    }

    /// Replace blocks `range` by `postings` (sorted; empty drops the
    /// blocks) re-encoded in as few near-equal blocks as hold them, so an
    /// insert that overfills a block splits it in half rather than
    /// shaving off a one-posting block. Bytes and skips are spliced in
    /// place and every later block's offset shifts by the size change;
    /// `len` / `distinct` are the caller's to adjust.
    fn rewrite_blocks(&mut self, range: Range<usize>, postings: &[Posting]) {
        let byte_at = |bi: usize| self.skips.get(bi).map_or(self.data.len(), |s| s.offset as usize);
        let (start, end) = (byte_at(range.start), byte_at(range.end));
        let mut bytes = Vec::new();
        let mut skips = Vec::new();
        if !postings.is_empty() {
            let blocks = postings.len().div_ceil(BLOCK_POSTINGS);
            for block in postings.chunks(postings.len().div_ceil(blocks)) {
                skips.push(BlockSkip::of(block, start + bytes.len()));
                encode_block(&mut bytes, block);
            }
        }
        let shift = bytes.len() as i64 - (end - start) as i64;
        for later in &mut self.skips[range.end..] {
            later.offset = (later.offset as i64 + shift) as u32;
        }
        self.data.splice(start..end, bytes);
        self.skips.splice(range, skips);
    }

    /// Drop every posting of `spec`, touching only the blocks whose skip
    /// range can hold it (more than one when the spec straddles a block
    /// boundary); returns the postings decoded to do so.
    fn remove_spec(&mut self, spec: u32) -> usize {
        let b0 = self.skips.partition_point(|s| s.max_spec < spec);
        let b1 = b0 + self.skips[b0..].partition_point(|s| s.first_spec <= spec);
        let mut block = Vec::new();
        for bi in b0..b1 {
            self.decode_block(bi, &mut block);
        }
        let decoded = block.len();
        block.retain(|p| p.spec.0 != spec);
        if block.len() < decoded {
            self.rewrite_blocks(b0..b1, &block);
            self.len -= decoded - block.len();
            self.distinct -= 1;
        }
        decoded
    }

    /// Insert `run` — one spec's sorted postings, the spec not yet in the
    /// list — into the one block its id position falls in (the last block
    /// when it sorts after everything); returns the postings decoded.
    fn insert_run(&mut self, run: &[Posting]) -> usize {
        let spec = run[0].spec.0;
        let mut block = Vec::new();
        let target = match self.skips.len() {
            0 => 0..0,
            n => {
                let bi = self.skips.partition_point(|s| s.max_spec < spec).min(n - 1);
                self.decode_block(bi, &mut block);
                bi..bi + 1
            }
        };
        let decoded = block.len();
        let at = block.partition_point(|p| p.spec.0 < spec);
        debug_assert!(block.get(at).is_none_or(|p| p.spec.0 != spec), "spec already listed");
        block.splice(at..at, run.iter().copied());
        self.rewrite_blocks(target, &block);
        self.len += run.len();
        self.distinct += 1;
        decoded
    }

    /// Spec-id span the density rule sees (`0` when empty).
    fn span(&self) -> u64 {
        match (self.first_spec(), self.max_spec()) {
            (Some(first), Some(max)) => (max - first + 1) as u64,
            _ => 0,
        }
    }

    /// Encode `postings` (sorted, specs ≥ the current maximum) as new
    /// blocks after the existing ones.
    fn push_blocks(&mut self, postings: &[Posting]) {
        let mut prev_spec = self.skips.last().map(|s| s.max_spec);
        for chunk in postings.chunks(BLOCK_POSTINGS) {
            self.skips.push(BlockSkip::of(chunk, self.data.len()));
            encode_block(&mut self.data, chunk);
            for p in chunk {
                if prev_spec != Some(p.spec.0) {
                    self.distinct += 1;
                    prev_spec = Some(p.spec.0);
                }
            }
        }
        self.len += postings.len();
    }

    fn block_bytes(&self, bi: usize) -> &[u8] {
        let start = self.skips[bi].offset as usize;
        let end = self.skips.get(bi + 1).map_or(self.data.len(), |s| s.offset as usize);
        &self.data[start..end]
    }

    /// Append block `bi`'s postings to `out`.
    fn decode_block(&self, bi: usize, out: &mut Vec<Posting>) {
        let mut bytes = self.block_bytes(bi);
        let count = self.skips[bi].count as usize;
        out.reserve(count);
        let mut prev =
            Posting { spec: SpecId(0), module: ModuleId(0), workflow: WorkflowId(0), tf: 0 };
        for i in 0..count {
            let b = &mut bytes;
            let v = get_uvarint(b).expect("sealed block is well-formed");
            if i == 0 {
                prev.spec = SpecId(v as u32);
                prev.workflow = WorkflowId(get_uvarint(b).expect("wf") as u32);
                prev.module = ModuleId(get_uvarint(b).expect("module") as u32);
            } else if v == 0 {
                let dw = get_uvarint(b).expect("wf delta") as u32;
                if dw == 0 {
                    prev.module =
                        ModuleId(prev.module.0 + get_uvarint(b).expect("module delta") as u32);
                } else {
                    prev.workflow = WorkflowId(prev.workflow.0 + dw);
                    prev.module = ModuleId(get_uvarint(b).expect("module") as u32);
                }
            } else {
                prev.spec = SpecId(prev.spec.0 + v as u32);
                prev.workflow = WorkflowId(get_uvarint(b).expect("wf") as u32);
                prev.module = ModuleId(get_uvarint(b).expect("module") as u32);
            }
            prev.tf = get_uvarint(b).expect("tf") as u32;
            out.push(prev);
        }
    }

    /// Decode only the spec-id stream of block `bi` into a fixed buffer;
    /// returns how many entries were written (`== count`, with repeats).
    fn decode_block_specs(&self, bi: usize, buf: &mut [u32; BLOCK_POSTINGS]) -> usize {
        let mut bytes = self.block_bytes(bi);
        let count = self.skips[bi].count as usize;
        let mut spec = 0u32;
        for (i, slot) in buf[..count].iter_mut().enumerate() {
            let b = &mut bytes;
            let v = get_uvarint(b).expect("sealed block is well-formed");
            if i == 0 {
                spec = v as u32;
                get_uvarint(b).expect("wf");
                get_uvarint(b).expect("module");
            } else if v == 0 {
                let dw = get_uvarint(b).expect("wf delta");
                get_uvarint(b).expect("module");
                let _ = dw;
            } else {
                spec += v as u32;
                get_uvarint(b).expect("wf");
                get_uvarint(b).expect("module");
            }
            get_uvarint(b).expect("tf");
            *slot = spec;
        }
        count
    }

    fn first_spec(&self) -> Option<u32> {
        self.skips.first().map(|s| s.first_spec)
    }

    fn max_spec(&self) -> Option<u32> {
        self.skips.last().map(|s| s.max_spec)
    }
}

/// First block index `>= from` whose `max_spec` reaches `c`: exponential
/// probe from the cursor, then binary search in the bracketed range — the
/// gallop that lets sorted candidate walks skip whole blocks.
fn first_block_reaching(skips: &[BlockSkip], from: usize, c: u32) -> usize {
    let mut lo = from;
    let mut hi = from;
    let mut step = 1usize;
    while hi < skips.len() && skips[hi].max_spec < c {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    let hi = hi.min(skips.len());
    lo + skips[lo..hi].partition_point(|s| s.max_spec < c)
}

impl BitmapList {
    fn build(postings: Vec<Posting>, distinct: usize) -> BitmapList {
        let min_spec = postings[0].spec.0;
        let max_spec = postings[postings.len() - 1].spec.0;
        let span = max_spec - min_spec + 1;
        let nwords = (span as usize).div_ceil(64);
        let mut words = vec![0u64; nwords];
        let mut starts = Vec::with_capacity(distinct + 1);
        let mut prev: Option<u32> = None;
        for (i, p) in postings.iter().enumerate() {
            if prev != Some(p.spec.0) {
                let off = (p.spec.0 - min_spec) as usize;
                words[off / 64] |= 1u64 << (off % 64);
                starts.push(i as u32);
                prev = Some(p.spec.0);
            }
        }
        starts.push(postings.len() as u32);
        let mut word_ranks = Vec::with_capacity(nwords);
        let mut rank = 0u32;
        for w in &words {
            word_ranks.push(rank);
            rank += w.count_ones();
        }
        BitmapList { min_spec, span, words, word_ranks, starts, postings, distinct }
    }

    fn max_spec(&self) -> u32 {
        self.min_spec + self.span - 1
    }

    /// Rank of `spec` among present specs, or `None` when absent — one
    /// bit test plus a popcount.
    fn rank(&self, spec: u32) -> Option<usize> {
        if spec < self.min_spec || spec > self.max_spec() {
            return None;
        }
        let off = (spec - self.min_spec) as usize;
        let (w, b) = (off / 64, off % 64);
        let word = self.words[w];
        if word & (1u64 << b) == 0 {
            return None;
        }
        Some(self.word_ranks[w] as usize + (word & ((1u64 << b) - 1)).count_ones() as usize)
    }

    fn payload(&self, rank: usize) -> &[Posting] {
        &self.postings[self.starts[rank] as usize..self.starts[rank + 1] as usize]
    }

    /// Word index and bit mask of an in-range `spec`.
    fn bit_of(&self, spec: u32) -> (usize, u64) {
        let off = (spec - self.min_spec) as usize;
        (off / 64, 1u64 << (off % 64))
    }

    /// Drop `spec`: its bit, its payload range, and the `starts` /
    /// `word_ranks` entries after it; returns the postings removed. The
    /// span is left alone — [`settle`] rebuilds a bitmap that lost a bound.
    fn remove_spec(&mut self, spec: u32) -> usize {
        let Some(rank) = self.rank(spec) else { return 0 };
        let (from, to) = (self.starts[rank], self.starts[rank + 1]);
        self.postings.drain(from as usize..to as usize);
        self.starts.remove(rank);
        for start in &mut self.starts[rank..] {
            *start -= to - from;
        }
        let (w, bit) = self.bit_of(spec);
        self.words[w] &= !bit;
        for ranks in &mut self.word_ranks[w + 1..] {
            *ranks -= 1;
        }
        self.distinct -= 1;
        (to - from) as usize
    }

    /// Insert `run` — one spec's sorted postings, the spec absent and
    /// inside `[min_spec, max_spec]` — at its rank: the mirror image of
    /// [`Self::remove_spec`].
    fn insert_run(&mut self, run: &[Posting]) {
        let (w, bit) = self.bit_of(run[0].spec.0);
        debug_assert_eq!(self.words[w] & bit, 0, "spec already listed");
        let rank = self.word_ranks[w] as usize + (self.words[w] & (bit - 1)).count_ones() as usize;
        let at = self.starts[rank];
        self.postings.splice(at as usize..at as usize, run.iter().copied());
        for start in &mut self.starts[rank..] {
            *start += run.len() as u32;
        }
        self.starts.insert(rank, at);
        self.words[w] |= bit;
        for ranks in &mut self.word_ranks[w + 1..] {
            *ranks += 1;
        }
        self.distinct += 1;
    }

    /// Whether both ends of the span are present specs, as a fresh build
    /// guarantees and the density rule assumes.
    fn is_tight(&self) -> bool {
        let last = (self.span - 1) as usize;
        self.words[0] & 1 != 0 && self.words[last / 64] & (1u64 << (last % 64)) != 0
    }

    /// 64 membership bits for specs `[spec_base, spec_base + 64)`,
    /// shift-aligned out of this bitmap's own grid (zero outside range).
    fn extract_word(&self, spec_base: u32) -> u64 {
        let off = spec_base as i64 - self.min_spec as i64;
        let get = |i: i64| -> u64 {
            if i < 0 || i as usize >= self.words.len() {
                0
            } else {
                self.words[i as usize]
            }
        };
        let w = off.div_euclid(64);
        let r = off.rem_euclid(64);
        if r == 0 {
            get(w)
        } else {
            (get(w) >> r) | (get(w + 1) << (64 - r))
        }
    }
}

fn count_distinct(postings: &[Posting]) -> usize {
    let mut distinct = 0;
    let mut prev = None;
    for p in postings {
        if prev != Some(p.spec.0) {
            distinct += 1;
            prev = Some(p.spec.0);
        }
    }
    distinct
}

fn build_sealed(postings: Vec<Posting>) -> Option<Sealed> {
    if postings.is_empty() {
        return None;
    }
    let distinct = count_distinct(&postings);
    let span = (postings[postings.len() - 1].spec.0 - postings[0].spec.0 + 1) as u64;
    if prefers_bitmap(distinct, span) {
        Some(Sealed::Bitmap(BitmapList::build(postings, distinct)))
    } else {
        Some(Sealed::Delta(DeltaList::build(&postings)))
    }
}

impl Sealed {
    fn max_spec(&self) -> Option<u32> {
        match self {
            Sealed::Delta(d) => d.max_spec(),
            Sealed::Bitmap(b) => Some(b.max_spec()),
        }
    }

    /// Every posting, decoded, in order — the input of a rebuild.
    fn into_postings(self) -> Vec<Posting> {
        match self {
            Sealed::Delta(d) => {
                let mut all = Vec::with_capacity(d.len);
                for bi in 0..d.skips.len() {
                    d.decode_block(bi, &mut all);
                }
                all
            }
            Sealed::Bitmap(b) => b.postings,
        }
    }
}

/// Restore the sealed invariants after an in-place edit: an emptied
/// sealed part is dropped, and a list whose delta/bitmap preference
/// flipped — or a bitmap whose minimum or maximum spec went — is rebuilt
/// from its postings, so the shape stays the one [`build_sealed`] picks.
/// Returns the postings rebuilt (`0` when the edit stood as made).
fn settle(inner: &mut Inner) -> usize {
    let rebuild = match &inner.sealed {
        None => false,
        Some(Sealed::Delta(d)) => d.skips.is_empty() || prefers_bitmap(d.distinct, d.span()),
        Some(Sealed::Bitmap(b)) => {
            b.distinct == 0 || !b.is_tight() || !prefers_bitmap(b.distinct, b.span as u64)
        }
    };
    if rebuild {
        rebuild_sealed(inner, |_| {})
    } else {
        0
    }
}

/// Rebuild the sealed part from its decoded postings after `edit` has had
/// its way with them; returns the postings rebuilt.
fn rebuild_sealed(inner: &mut Inner, edit: impl FnOnce(&mut Vec<Posting>)) -> usize {
    let mut all = inner.sealed.take().map(Sealed::into_postings).unwrap_or_default();
    edit(&mut all);
    let rebuilt = all.len();
    inner.sealed = build_sealed(all);
    rebuilt
}

fn seal(inner: &mut Inner) {
    if inner.tail.is_empty() {
        return;
    }
    let tail = std::mem::take(&mut inner.tail);
    inner.sealed = match inner.sealed.take() {
        None => build_sealed(tail),
        Some(Sealed::Delta(mut d)) => {
            // Extend in place only when the append-only contract holds:
            // the tail is itself sorted and every tail spec sorts after
            // the sealed maximum — and the grown list still prefers the
            // delta shape. Anything else rebuilds from the decoded whole.
            let tail_ordered = tail.windows(2).all(|w| {
                (w[0].spec, w[0].workflow, w[0].module) <= (w[1].spec, w[1].workflow, w[1].module)
            });
            let extendable = tail_ordered && d.max_spec().is_none_or(|m| tail[0].spec.0 > m);
            let keeps_delta = extendable && {
                let first = d.first_spec().unwrap_or(tail[0].spec.0);
                let span = (tail[tail.len() - 1].spec.0 - first + 1) as u64;
                !prefers_bitmap(d.distinct + count_distinct(&tail), span)
            };
            if keeps_delta {
                d.push_blocks(&tail);
                Some(Sealed::Delta(d))
            } else {
                let mut all = Sealed::Delta(d).into_postings();
                merge_tail(&mut all, tail);
                build_sealed(all)
            }
        }
        Some(bitmap) => {
            let mut all = bitmap.into_postings();
            merge_tail(&mut all, tail);
            build_sealed(all)
        }
    };
}

/// Append `tail` to `all`, re-sorting only when the append-only invariant
/// (tail sorts after the sealed prefix) does not hold — the defensive
/// path for arbitrary users of [`PostingList`]; the keyword index always
/// appends fresh (larger) spec ids.
fn merge_tail(all: &mut Vec<Posting>, tail: Vec<Posting>) {
    let ordered = match (all.last(), tail.first()) {
        (Some(a), Some(t)) => (a.spec, a.workflow, a.module) <= (t.spec, t.workflow, t.module),
        _ => true,
    };
    all.extend(tail);
    if !ordered {
        all.sort_by_key(|p| (p.spec, p.workflow, p.module));
    }
}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Build from postings already sorted by `(spec, workflow, module)`.
    /// The list stays unsealed until first read (seal-on-first-lookup).
    pub fn from_postings(postings: Vec<Posting>) -> Self {
        PostingList { inner: RwLock::new(Inner { sealed: None, tail: postings }) }
    }

    /// Append postings sorted by `(spec, workflow, module)` whose specs
    /// are ≥ every already-held spec (the index's append-only refresh
    /// contract; violations degrade to a re-sort at seal time, never to
    /// wrong answers). Never locks, never re-encodes: O(new postings).
    pub fn append_sorted(&mut self, postings: impl IntoIterator<Item = Posting>) {
        self.inner.get_mut().tail.extend(postings);
    }

    /// Remove every posting of `spec`, in place: the pending tail is
    /// filtered as the vector it is, and the sealed part gives up only
    /// what can hold the spec — the skip-located delta block(s), or a
    /// bitmap's bit and payload range (see the module docs). Survivors
    /// keep their order and the list stays sealed. Returns the postings
    /// the edit had to materialize — those removed from a tail or bitmap,
    /// every posting of a delta block it decoded, and the whole list when
    /// it had to be rebuilt — the maintenance-work instrument; removing an
    /// absent spec from a bitmap or tail costs `0`.
    pub fn remove_spec(&mut self, spec: SpecId) -> usize {
        let inner = self.inner.get_mut();
        let tail_before = inner.tail.len();
        inner.tail.retain(|p| p.spec != spec);
        let touched = match &mut inner.sealed {
            None => 0,
            Some(Sealed::Delta(d)) => d.remove_spec(spec.0),
            Some(Sealed::Bitmap(b)) => b.remove_spec(spec.0),
        };
        tail_before - inner.tail.len() + touched + settle(inner)
    }

    /// Insert `run` — the postings of **one** spec the list does not hold,
    /// sorted by `(workflow, module)` — at the spec's id position, in
    /// place: the mirror image of [`Self::remove_spec`], with the same
    /// return value. A spec past the sealed maximum joins the pending tail
    /// when there is one (or nothing is sealed); otherwise the sealed part
    /// takes it — one delta block decoded and re-encoded (split when it
    /// overfills), or a bitmap's bit and payload range — and only a
    /// bitmap asked to grow its span is rebuilt.
    pub fn insert_spec_postings(&mut self, run: &[Posting]) -> usize {
        let Some(first) = run.first() else { return 0 };
        debug_assert!(run.iter().all(|p| p.spec == first.spec), "one spec per run");
        let spec = first.spec.0;
        let inner = self.inner.get_mut();
        let sealed_max = inner.sealed.as_ref().and_then(Sealed::max_spec);
        if sealed_max.is_none_or(|max| spec > max && !inner.tail.is_empty()) {
            let at = inner.tail.partition_point(|p| p.spec.0 < spec);
            inner.tail.splice(at..at, run.iter().copied());
            return run.len();
        }
        let touched = match &mut inner.sealed {
            Some(Sealed::Delta(d)) => d.insert_run(run),
            Some(Sealed::Bitmap(b)) if (b.min_spec..=b.max_spec()).contains(&spec) => {
                b.insert_run(run);
                run.len()
            }
            _ => rebuild_sealed(inner, |all| {
                let at = all.partition_point(|p| p.spec.0 < spec);
                all.splice(at..at, run.iter().copied());
            }),
        };
        touched + settle(inner)
    }

    /// Total postings (sealed + tail). Never seals — `df` probes stay
    /// O(1) and read-only.
    pub fn len(&self) -> usize {
        let g = self.inner.read();
        let sealed = match &g.sealed {
            None => 0,
            Some(Sealed::Delta(d)) => d.len,
            Some(Sealed::Bitmap(b)) => b.postings.len(),
        };
        sealed + g.tail.len()
    }

    /// Whether the list holds no postings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current representation without forcing a seal.
    pub fn shape(&self) -> PostingsShape {
        let g = self.inner.read();
        if !g.tail.is_empty() {
            return PostingsShape::Unsealed;
        }
        match &g.sealed {
            None => PostingsShape::Delta { blocks: 0 },
            Some(Sealed::Delta(d)) => PostingsShape::Delta { blocks: d.skips.len() },
            Some(Sealed::Bitmap(b)) => PostingsShape::Bitmap { words: b.words.len() },
        }
    }

    /// Read guard over a sealed list (seals first if a tail is pending).
    fn sealed(&self) -> RwLockReadGuard<'_, Inner> {
        loop {
            {
                let g = self.inner.read();
                if g.tail.is_empty() {
                    return g;
                }
            }
            seal(&mut self.inner.write());
        }
    }

    /// Append every posting, in `(spec, workflow, module)` order, to `out`.
    pub fn decode_into(&self, out: &mut Vec<Posting>) {
        let g = self.sealed();
        match &g.sealed {
            None => {}
            Some(Sealed::Delta(d)) => {
                out.reserve(d.len);
                for bi in 0..d.skips.len() {
                    d.decode_block(bi, out);
                }
            }
            Some(Sealed::Bitmap(b)) => out.extend_from_slice(&b.postings),
        }
    }

    /// All postings as a fresh vector (compatibility convenience; the
    /// query path uses [`Self::decode_into`] with scratch).
    pub fn to_vec(&self) -> Vec<Posting> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Number of distinct spec ids (seals).
    pub fn distinct_specs(&self) -> usize {
        let g = self.sealed();
        match &g.sealed {
            None => 0,
            Some(Sealed::Delta(d)) => d.distinct,
            Some(Sealed::Bitmap(b)) => b.distinct,
        }
    }

    /// Append the distinct spec ids, ascending, to `out` (seals).
    pub fn specs_into(&self, out: &mut Vec<u32>) {
        let g = self.sealed();
        match &g.sealed {
            None => {}
            Some(Sealed::Delta(d)) => {
                out.reserve(d.distinct);
                let mut buf = [0u32; BLOCK_POSTINGS];
                for bi in 0..d.skips.len() {
                    let n = d.decode_block_specs(bi, &mut buf);
                    for &s in &buf[..n] {
                        if out.last() != Some(&s) {
                            out.push(s);
                        }
                    }
                }
            }
            Some(Sealed::Bitmap(b)) => {
                out.reserve(b.distinct);
                for (wi, &w) in b.words.iter().enumerate() {
                    let mut m = w;
                    while m != 0 {
                        let t = m.trailing_zeros();
                        out.push(b.min_spec + wi as u32 * 64 + t);
                        m &= m - 1;
                    }
                }
            }
        }
    }

    /// Whether any posting carries `spec` — O(1) for bitmaps, one skip
    /// binary-search plus a block scan for delta lists (seals).
    pub fn contains_spec(&self, spec: u32) -> bool {
        let g = self.sealed();
        match &g.sealed {
            None => false,
            Some(Sealed::Delta(d)) => {
                let bi = d.skips.partition_point(|s| s.max_spec < spec);
                if bi >= d.skips.len() || d.skips[bi].first_spec > spec {
                    return false;
                }
                let mut buf = [0u32; BLOCK_POSTINGS];
                let n = d.decode_block_specs(bi, &mut buf);
                buf[..n].binary_search(&spec).is_ok()
            }
            Some(Sealed::Bitmap(b)) => b.rank(spec).is_some(),
        }
    }

    /// Retain only the candidates (sorted ascending) present in this
    /// list: the galloping (delta) / bit-test (bitmap) intersection step.
    pub fn retain_specs(&self, cands: &mut Vec<u32>) {
        let g = self.sealed();
        match &g.sealed {
            None => cands.clear(),
            Some(Sealed::Delta(d)) => {
                // Adaptive merge: gallop block-to-block on the skip table,
                // then walk each decoded block with a shrinking-window
                // search — linear-merge cost when candidates are dense in
                // the block, logarithmic probes when they are sparse.
                let mut keep = 0usize;
                let mut ci = 0usize;
                let mut bi = 0usize;
                let mut buf = [0u32; BLOCK_POSTINGS];
                while ci < cands.len() && bi < d.skips.len() {
                    bi = first_block_reaching(&d.skips, bi, cands[ci]);
                    if bi >= d.skips.len() {
                        break;
                    }
                    let sk = d.skips[bi];
                    while ci < cands.len() && cands[ci] < sk.first_spec {
                        ci += 1;
                    }
                    if ci >= cands.len() {
                        break;
                    }
                    if cands[ci] > sk.max_spec {
                        continue; // gallop further from this candidate
                    }
                    let n = d.decode_block_specs(bi, &mut buf);
                    let mut lo = 0usize;
                    while ci < cands.len() && cands[ci] <= sk.max_spec {
                        let c = cands[ci];
                        while lo < n && buf[lo] < c {
                            lo += 1;
                        }
                        if lo < n && buf[lo] == c {
                            cands[keep] = c;
                            keep += 1;
                        }
                        ci += 1;
                    }
                    bi += 1;
                }
                cands.truncate(keep);
            }
            Some(Sealed::Bitmap(b)) => cands.retain(|&c| b.rank(c).is_some()),
        }
    }

    /// Append this list's postings whose spec is in `specs` (sorted
    /// ascending) to `out`, in posting order — decoding only the blocks
    /// whose skip range overlaps a candidate.
    pub fn gather_specs_into(
        &self,
        specs: &[u32],
        block_buf: &mut Vec<Posting>,
        out: &mut Vec<Posting>,
    ) {
        if specs.is_empty() {
            return;
        }
        let g = self.sealed();
        match &g.sealed {
            None => {}
            Some(Sealed::Delta(d)) => {
                let mut si = 0usize;
                let mut bi = 0usize;
                while si < specs.len() && bi < d.skips.len() {
                    bi = first_block_reaching(&d.skips, bi, specs[si]);
                    if bi >= d.skips.len() {
                        break;
                    }
                    let sk = d.skips[bi];
                    si += specs[si..].partition_point(|&s| s < sk.first_spec);
                    if si >= specs.len() {
                        break;
                    }
                    if specs[si] > sk.max_spec {
                        continue; // gallop further from this candidate
                    }
                    block_buf.clear();
                    d.decode_block(bi, block_buf);
                    let mut sj = si;
                    for p in block_buf.iter() {
                        while sj < specs.len() && specs[sj] < p.spec.0 {
                            sj += 1;
                        }
                        if sj >= specs.len() {
                            break;
                        }
                        if specs[sj] == p.spec.0 {
                            out.push(*p);
                        }
                    }
                    bi += 1;
                }
            }
            Some(Sealed::Bitmap(b)) => {
                for &c in specs {
                    if let Some(r) = b.rank(c) {
                        out.extend_from_slice(b.payload(r));
                    }
                }
            }
        }
    }

    /// Visit the sealed postings block by block (≤ [`BLOCK_POSTINGS`] per
    /// call) — the candidate-block surface for block-at-a-time consumers.
    pub fn for_each_block(&self, block_buf: &mut Vec<Posting>, mut f: impl FnMut(&[Posting])) {
        let g = self.sealed();
        match &g.sealed {
            None => {}
            Some(Sealed::Delta(d)) => {
                for bi in 0..d.skips.len() {
                    block_buf.clear();
                    d.decode_block(bi, block_buf);
                    f(block_buf);
                }
            }
            Some(Sealed::Bitmap(b)) => {
                for chunk in b.postings.chunks(BLOCK_POSTINGS) {
                    f(chunk);
                }
            }
        }
    }
}

/// Word-wise AND of two bitmap-sealed lists into `out` (ascending spec
/// ids). Returns `false` (and leaves `out` alone) unless **both** lists
/// are sealed bitmaps — callers fall back to the galloping path.
pub fn try_bitwise_and(a: &PostingList, b: &PostingList, out: &mut Vec<u32>) -> bool {
    let ga = a.sealed();
    let gb = b.sealed();
    let (Some(Sealed::Bitmap(ba)), Some(Sealed::Bitmap(bb))) = (&ga.sealed, &gb.sealed) else {
        return false;
    };
    let lo = ba.min_spec.max(bb.min_spec);
    let hi = ba.max_spec().min(bb.max_spec());
    if lo > hi {
        return true; // disjoint ranges: empty intersection
    }
    let w_lo = ((lo - ba.min_spec) / 64) as usize;
    let w_hi = ((hi - ba.min_spec) / 64) as usize;
    for wa in w_lo..=w_hi {
        let base = ba.min_spec + wa as u32 * 64;
        let mut m = ba.words[wa] & bb.extract_word(base);
        if base < lo {
            m &= !0u64 << (lo - base);
        }
        if base + 63 > hi {
            m &= !0u64 >> (63 - (hi - base));
        }
        while m != 0 {
            let t = m.trailing_zeros();
            out.push(base + t);
            m &= m - 1;
        }
    }
    true
}

/// One query term's posting sources for candidate-spec intersection. A
/// single-token term reads one list (`primary`); a phrase's candidates
/// are the union of its whole-tag list (`primary`) and its first token's
/// list (`seed`) — a conservative superset of its real matches, since a
/// phrase hit is either a whole keyword tag or verified against the
/// module's name tokens seeded from the first token's postings.
pub struct TermLists<'a> {
    /// The term's own list (single token) or whole-tag phrase list.
    pub primary: Option<&'a PostingList>,
    /// The phrase's first-token list (`None` for single tokens).
    pub seed: Option<&'a PostingList>,
}

impl TermLists<'_> {
    fn upper_bound(&self) -> usize {
        self.primary.map_or(0, |l| l.distinct_specs()) + self.seed.map_or(0, |l| l.distinct_specs())
    }

    fn specs_union_into(&self, tmp: &mut Vec<u32>, out: &mut Vec<u32>) {
        match (self.primary, self.seed) {
            (Some(a), None) | (None, Some(a)) => a.specs_into(out),
            (Some(a), Some(b)) => {
                a.specs_into(out);
                tmp.clear();
                b.specs_into(tmp);
                out.extend_from_slice(tmp);
                out.sort_unstable();
                out.dedup();
            }
            (None, None) => {}
        }
    }

    fn contains_spec(&self, c: u32) -> bool {
        self.primary.is_some_and(|l| l.contains_spec(c))
            || self.seed.is_some_and(|l| l.contains_spec(c))
    }
}

/// Multi-term candidate-spec intersection: seed from the smallest term's
/// spec superset (or a word-wise bitmap AND when the two smallest terms
/// are both bitmap-sealed), then gallop the rest. `out` receives the
/// ascending spec ids that *could* satisfy every term — the exact
/// per-spec AND check happens on the gathered (and access-filtered)
/// postings.
pub fn intersect_term_specs(groups: &[TermLists<'_>], tmp: &mut Vec<u32>, out: &mut Vec<u32>) {
    out.clear();
    if groups.is_empty() {
        return;
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&i| groups[i].upper_bound());
    let mut rest = &order[1..];
    let g0 = &groups[order[0]];
    let mut seeded = false;
    if let Some(&i1) = rest.first() {
        if let (
            TermLists { primary: Some(a), seed: None },
            TermLists { primary: Some(b), seed: None },
        ) = (g0, &groups[i1])
        {
            if try_bitwise_and(a, b, out) {
                seeded = true;
                rest = &rest[1..];
            }
        }
    }
    if !seeded {
        g0.specs_union_into(tmp, out);
    }
    for &i in rest {
        if out.is_empty() {
            return;
        }
        let g = &groups[i];
        match (g.primary, g.seed) {
            (Some(a), None) | (None, Some(a)) => a.retain_specs(out),
            (Some(_), Some(_)) => out.retain(|&c| g.contains_spec(c)),
            (None, None) => out.clear(),
        }
    }
}

/// Reusable per-query scratch buffers. One lives per thread (see
/// [`with_scratch`]); the pool's scoped jobs therefore reuse the same
/// arena across every query a worker serves, and per-query allocation on
/// the cold path drops to the actual answer materialization.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Gathered per-term postings.
    pub postings: Vec<Posting>,
    /// Phrase seed postings (first-token candidates).
    pub seed: Vec<Posting>,
    /// Per-block decode buffer.
    pub block: Vec<Posting>,
    /// Candidate spec ids.
    pub specs: Vec<u32>,
    /// Second spec buffer (unions, intersections).
    pub specs_b: Vec<u32>,
    /// Per `(candidate spec, term)` module lists, flattened row-major.
    pub mods: Vec<Vec<ModuleId>>,
    /// Per-term IDF weights.
    pub idfs: Vec<f64>,
    /// Flat `profiles × terms` staging array for batch scoring.
    pub tf_flat: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

/// Run `f` with this thread's [`QueryScratch`]. Reentrant calls (a
/// scratch user calling another scratch user) fall back to a fresh
/// arena rather than aliasing the borrowed one.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut QueryScratch::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn posting(spec: u32, wf: u32, module: u32, tf: u32) -> Posting {
        Posting { spec: SpecId(spec), module: ModuleId(module), workflow: WorkflowId(wf), tf }
    }

    fn sparse_postings(n: u32) -> Vec<Posting> {
        // Spec ids spread 16 apart: delta territory.
        (0..n).flat_map(|i| (0..2).map(move |m| posting(i * 16, m % 2, m, m + 1))).collect()
    }

    fn dense_postings(n: u32) -> Vec<Posting> {
        (0..n).map(|i| posting(i, i % 3, i % 7, 1 + i % 4)).collect()
    }

    #[test]
    fn roundtrip_delta_and_bitmap() {
        for src in [sparse_postings(300), dense_postings(300)] {
            let list = PostingList::from_postings(src.clone());
            assert_eq!(list.shape(), PostingsShape::Unsealed, "seal must be lazy");
            assert_eq!(list.to_vec(), src);
            assert_eq!(list.len(), src.len());
        }
        let sparse = PostingList::from_postings(sparse_postings(300));
        sparse.decode_into(&mut Vec::new());
        assert!(matches!(sparse.shape(), PostingsShape::Delta { blocks } if blocks > 1));
        let dense = PostingList::from_postings(dense_postings(300));
        dense.decode_into(&mut Vec::new());
        assert!(matches!(dense.shape(), PostingsShape::Bitmap { .. }));
    }

    #[test]
    fn append_tail_then_reseal() {
        let mut list = PostingList::from_postings(sparse_postings(200));
        let first = list.to_vec();
        assert!(matches!(list.shape(), PostingsShape::Delta { .. }));
        let extra: Vec<Posting> = (0..40).map(|i| posting(20_000 + i, 0, i, 1)).collect();
        list.append_sorted(extra.iter().copied());
        assert_eq!(list.shape(), PostingsShape::Unsealed);
        assert_eq!(list.len(), first.len() + extra.len(), "len needs no seal");
        let mut expect = first;
        expect.extend(extra);
        assert_eq!(list.to_vec(), expect);
    }

    #[test]
    fn out_of_order_append_degrades_to_resort() {
        let mut list = PostingList::from_postings(vec![posting(10, 0, 0, 1)]);
        list.to_vec();
        list.append_sorted([posting(3, 0, 0, 1)]);
        assert_eq!(list.to_vec(), vec![posting(3, 0, 0, 1), posting(10, 0, 0, 1)]);
    }

    #[test]
    fn specs_contains_retain_gather() {
        for src in [sparse_postings(300), dense_postings(300)] {
            let list = PostingList::from_postings(src.clone());
            let mut specs = Vec::new();
            list.specs_into(&mut specs);
            let mut expect: Vec<u32> = src.iter().map(|p| p.spec.0).collect();
            expect.dedup();
            assert_eq!(specs, expect);
            assert_eq!(list.distinct_specs(), expect.len());
            for probe in [0u32, 1, 15, 16, 17, 100, 4784, 1_000_000] {
                assert_eq!(list.contains_spec(probe), expect.binary_search(&probe).is_ok());
            }
            // retain over a mixed candidate set
            let mut cands: Vec<u32> = (0..600).map(|i| i * 7).collect();
            let mut reference: Vec<u32> =
                cands.iter().copied().filter(|c| expect.binary_search(c).is_ok()).collect();
            list.retain_specs(&mut cands);
            assert_eq!(cands, reference);
            // gather matches the naive filter
            reference.truncate(20);
            let mut out = Vec::new();
            list.gather_specs_into(&reference, &mut Vec::new(), &mut out);
            let naive: Vec<Posting> = src
                .iter()
                .copied()
                .filter(|p| reference.binary_search(&p.spec.0).is_ok())
                .collect();
            assert_eq!(out, naive);
        }
    }

    #[test]
    fn bitwise_and_matches_gallop() {
        let a = PostingList::from_postings(dense_postings(400));
        let b = PostingList::from_postings(
            (0..400u32).filter(|i| i % 3 == 0).map(|i| posting(i + 50, 0, 0, 1)).collect(),
        );
        let mut fast = Vec::new();
        assert!(try_bitwise_and(&a, &b, &mut fast), "both lists are dense");
        let mut slow = Vec::new();
        a.specs_into(&mut slow);
        b.retain_specs(&mut slow);
        assert_eq!(fast, slow);
        // delta lists refuse the bitwise path
        let sparse = PostingList::from_postings(sparse_postings(100));
        assert!(!try_bitwise_and(&a, &sparse, &mut Vec::new()));
    }

    #[test]
    fn intersection_over_mixed_shapes() {
        let dense = PostingList::from_postings(dense_postings(400));
        let sparse = PostingList::from_postings(sparse_postings(30));
        let groups = [
            TermLists { primary: Some(&dense), seed: None },
            TermLists { primary: Some(&sparse), seed: None },
        ];
        let mut out = Vec::new();
        intersect_term_specs(&groups, &mut Vec::new(), &mut out);
        // sparse specs are multiples of 16 below 480; dense covers 0..400
        let expect: Vec<u32> = (0..30u32).map(|i| i * 16).filter(|&s| s < 400).collect();
        assert_eq!(out, expect);
        // an absent term empties the intersection
        let empty = PostingList::new();
        let groups = [
            TermLists { primary: Some(&dense), seed: None },
            TermLists { primary: Some(&empty), seed: None },
        ];
        intersect_term_specs(&groups, &mut Vec::new(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn block_visitation_covers_everything() {
        let src = sparse_postings(300);
        let list = PostingList::from_postings(src.clone());
        let mut seen = Vec::new();
        let mut blocks = 0;
        list.for_each_block(&mut Vec::new(), |b| {
            assert!(b.len() <= BLOCK_POSTINGS);
            seen.extend_from_slice(b);
            blocks += 1;
        });
        assert_eq!(seen, src);
        assert!(blocks >= src.len() / BLOCK_POSTINGS);
    }
}

//! Reading a message in place: the offset tape and the view over it.
//!
//! A morph decision's program does not need the message as a [`Value`]
//! tree — it reads a few fields of it, and copies them into the records it
//! builds. [`ConversionPlan::index`] walks a message once, with every check
//! [`ConversionPlan::execute`] makes, and records on a [`Tape`] where each
//! field the plan keeps begins; a [`WireView`] then answers reads from the
//! tape and the message bytes. Nothing of the source message is allocated,
//! and nothing is dropped afterwards.
//!
//! # The tape
//!
//! A flat list of `u32` words. Each record the plan keeps has a *block*: one
//! slot per field, in wire order, at a word offset fixed when the plan was
//! compiled. A slot is
//!
//! * one word for a field of fixed wire size — a scalar, or a record or
//!   fixed array made only of those: its payload offset. Everything inside
//!   it is found by arithmetic on that offset;
//! * two words for a string: the offset of its first byte, and its place in
//!   the view's list of the strings the pass checked;
//! * the field's own block, inline, for a record of variable size;
//! * three words for an array of fixed-size elements — its payload offset and
//!   its element count (64 bits, low word first) — and two more for an array
//!   of variable ones: where its *table* starts and how many entries it has.
//!   Entry `k` of the table is the word where element `k`'s slot begins.
//!
//! The root's block comes first; a variable array's elements, and then its
//! table, are appended as the walk reaches them. A `Field` step is one slot
//! lookup and an `Index` step one table lookup (or one multiplication), so a
//! path costs as many steps as it has segments.
//!
//! # Validation happens at index time
//!
//! The index pass is the decode walk of [`ConversionPlan::execute`] —
//! counts, strides, block bounds, UTF-8 of every string in a kept field,
//! the fields the projection skips, trailing bytes — in the same order, so
//! a damaged message fails there, with the error `execute` returns, before
//! anything reads it. A read through the view converts bytes the pass has
//! already checked.
//!
//! # Memory
//!
//! The tape grows with the bytes walked, never with a count the message
//! claims: a word is written for a field only once its bytes have been
//! seen. An array whose first element took no bytes at all — one with no
//! scalar in it, so every element is that element — keeps one table entry
//! for all of them. Between messages a tape keeps at most four times what
//! the last one used (or a few KiB): one large message does not fix a
//! receiver's memory from then on.

use crate::decode::{non_utf8, Cursor};
use crate::encode::{parse_header, ByteOrder, HEADER_LEN};
use crate::error::{PbioError, Result};
use crate::meta::format_id;
use crate::plan::{
    array_len, build, fixed_size, record, skip, slot_words, Be, ConversionPlan, ElemPlan, IntConv,
    IntRead, Le, LenPlan, Order, RecordPlan,
};
use crate::value::Value;

/// The working memory of [`ConversionPlan::index`]: the offset tape a
/// [`WireView`] reads, and the walk's own stacks. A caller that indexes
/// message after message keeps one: it allocates nothing for a message no
/// larger than the last, and gives back what a much larger one left behind.
#[derive(Debug, Default)]
pub struct Tape {
    words: Vec<u32>,
    /// Element positions of the variable arrays the walk is inside,
    /// innermost last; an array's run moves to the tape as its table when
    /// the array ends.
    pending: Vec<u32>,
    /// Count slots of the record levels the walk is inside.
    counts: Vec<u64>,
    /// Strings the last message held: what the next one's list is sized for.
    texts: usize,
}

impl ConversionPlan {
    /// Indexes the wire message `msg` (header + payload) onto `tape` and
    /// returns a view that reads it in place — what [`ConversionPlan::execute`]
    /// would decode, field by field, without building it.
    ///
    /// # Errors
    ///
    /// Whatever [`ConversionPlan::execute`] returns on the same bytes, and
    /// [`PbioError::BadFormat`] for a plan that converts between two
    /// formats: only an identity or projected plan reads a message in place.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), pbio::PbioError> {
    /// use pbio::{ConversionPlan, Encoder, FormatBuilder, PathStep, Tape, Value};
    ///
    /// let fmt = FormatBuilder::record("M").int("a").string("s").build_arc()?;
    /// let msg = Encoder::new(&fmt).encode(&Value::Record(vec![7.into(), "hi".into()]))?;
    /// let plan = ConversionPlan::identity(&fmt)?;
    /// let (s, whole) = (plan.route(&[PathStep::Field(1)]), plan.route(&[]));
    /// let mut tape = Tape::default();
    /// let view = plan.index(&msg, &mut tape)?;
    /// assert_eq!(view.get(&s, &[]), Ok(Value::str("hi")));
    /// assert_eq!(view.get(&whole, &[]), Ok(plan.execute(&msg)?));
    /// # Ok(())
    /// # }
    /// ```
    pub fn index<'a>(&'a self, msg: &'a [u8], tape: &'a mut Tape) -> Result<WireView<'a>> {
        if format_id(self.wire_format()) != format_id(self.native_format()) {
            return Err(PbioError::BadFormat(
                "only an identity or projected plan reads a message in place".into(),
            ));
        }
        let h = parse_header(msg)?;
        let payload = &msg[HEADER_LEN..HEADER_LEN + h.payload_len];
        let Tape { words, pending, counts, texts } = tape;
        // A string takes a byte at least: the last message's count is a
        // hint this one's payload bounds.
        let texts_hint = (*texts).min(payload.len());
        let mut walk = Walk {
            words,
            pending,
            counts,
            texts: Vec::with_capacity(texts_hint),
            len: payload.len(),
        };
        walk.words.clear();
        walk.pending.clear();
        walk.counts.clear();
        let mut c = Cursor::new(payload, h.order);
        let walked = walk.reserve(slot_words(&self.root)).and_then(|_| match h.order {
            ByteOrder::Little => walk.elem::<Le>(&self.root, &mut c, 0, 0),
            ByteOrder::Big => walk.elem::<Be>(&self.root, &mut c, 0, 0),
        });
        let Walk { words, pending, texts: strings, .. } = walk;
        // Whether or not the message held up, what it walked bounds what
        // the tape keeps.
        let used = words.len();
        trim(words, used);
        trim(pending, used);
        walked?;
        if !c.at_end() {
            return Err(PbioError::BadData("trailing bytes after record payload".into()));
        }
        *texts = strings.len();
        Ok(WireView { root: &self.root, payload, order: h.order, words, texts: strings })
    }
}

/// Words a tape buffer may keep whatever the message just indexed: 4 KiB.
const KEEP_WORDS: usize = 1024;

/// Gives back the capacity of `v` beyond four times the `used` words of the
/// message just indexed (and [`KEEP_WORDS`]): the largest message a
/// receiver ever indexed does not fix its memory from then on.
fn trim(v: &mut Vec<u32>, used: usize) {
    if v.capacity() > used.saturating_mul(4).max(KEEP_WORDS) {
        v.shrink_to(used.max(KEEP_WORDS));
    }
}

/// The index pass over one message.
struct Walk<'t, 'a> {
    words: &'t mut Vec<u32>,
    pending: &'t mut Vec<u32>,
    counts: &'t mut Vec<u64>,
    /// Every string the pass checked, as the UTF-8 it checked it to be: a
    /// read copies it without checking it again.
    texts: Vec<&'a str>,
    /// Payload length: a cursor's offset is what it has consumed of it.
    len: usize,
}

impl<'a> Walk<'_, 'a> {
    /// Appends `n` zeroed words and returns where they start.
    fn reserve(&mut self, n: u32) -> Result<u32> {
        let start = self.words.len();
        let pos = u32::try_from(start)
            .ok()
            .filter(|p| p.checked_add(n).is_some())
            .ok_or_else(|| PbioError::BadData("message too large to index".into()))?;
        self.words.resize(start + n as usize, 0);
        Ok(pos)
    }

    /// The payload offset of `c`. A payload is at most `u32::MAX` bytes long:
    /// the header carries its length in 32 bits.
    fn offset(&self, c: &Cursor<'_>) -> u32 {
        (self.len - c.remaining()) as u32
    }

    /// One record level into the block at `pos`, as `plan::record` decodes
    /// it: a step without a destination is parsed past, every other one
    /// indexed.
    fn record<O: Order>(&mut self, rp: &RecordPlan, c: &mut Cursor<'a>, pos: u32) -> Result<()> {
        let level = self.counts.len();
        self.counts.resize(level + rp.n_counts, 0);
        for step in &rp.steps {
            let w = pos + step.slot.word;
            match (step.dst, &step.elem, step.slot.size) {
                (None, elem, _) => skip::<O>(elem, c, &mut self.counts[level..])?,
                (Some(_), ElemPlan::Count { .. }, _) => self.elem::<O>(&step.elem, c, w, level)?,
                // What a fixed-size field holds cannot fail once its bytes
                // are there: no count, no string, every array a block of
                // known length.
                (Some(_), _, Some(size)) => {
                    self.words[w as usize] = self.offset(c);
                    if !c.skip(size as usize) {
                        return Err(PbioError::UnexpectedEof);
                    }
                }
                (Some(_), elem, None) => self.elem::<O>(elem, c, w, level)?,
            }
        }
        self.counts.truncate(level);
        Ok(())
    }

    /// One element into its slot at word `w`, with the checks `plan::build`
    /// makes; `level` is where the enclosing record's count slots start.
    fn elem<O: Order>(
        &mut self,
        elem: &ElemPlan,
        c: &mut Cursor<'a>,
        w: u32,
        level: usize,
    ) -> Result<()> {
        let w = w as usize;
        self.words[w] = self.offset(c);
        if let ElemPlan::Count { read, slot, .. } = elem {
            self.counts[level + slot] = read.count(read.bits::<O>(c)?)?;
            return Ok(());
        }
        if let Some(size) = fixed_size(elem) {
            return c.advance(size);
        }
        match elem {
            ElemPlan::Str => {
                let text = c.c_str().ok_or(PbioError::UnexpectedEof)?;
                // One string per byte at least: the count fits the word.
                self.words[w + 1] = self.texts.len() as u32;
                self.texts.push(std::str::from_utf8(text).map_err(|_| non_utf8())?);
            }
            ElemPlan::Record(rp) => self.record::<O>(rp, c, w as u32)?,
            ElemPlan::Array { elem, len, stride, .. } => {
                let n = array_len(*len, *stride, c, &self.counts[level..])?;
                self.words[w + 1] = n as u32;
                self.words[w + 2] = (n as u64 >> 32) as u32;
                match stride {
                    // `array_len` proved the block is there.
                    Some(s) => c.advance(n * s)?,
                    None => self.elements::<O>(elem, n, c, w, level)?,
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The `n` variable-size elements of the array whose slot is at word
    /// `w`, each slot appended to the tape, then the table of where they
    /// are.
    fn elements<O: Order>(
        &mut self,
        elem: &ElemPlan,
        n: usize,
        c: &mut Cursor<'a>,
        w: usize,
        level: usize,
    ) -> Result<()> {
        let mark = self.pending.len();
        let words = slot_words(elem);
        for _ in 0..n {
            let before = c.remaining();
            let at = self.reserve(words)?;
            match elem {
                ElemPlan::Record(rp) => self.record::<O>(rp, c, at)?,
                _ => self.elem::<O>(elem, c, at, level)?,
            }
            self.pending.push(at);
            if c.remaining() == before {
                // No bytes, so no scalar: every element is this one.
                break;
            }
        }
        let entries = (self.pending.len() - mark) as u32;
        let table = self.reserve(entries)?;
        self.words[table as usize..].copy_from_slice(&self.pending[mark..]);
        self.pending.truncate(mark);
        self.words[w + 3] = table;
        self.words[w + 4] = entries;
        Ok(())
    }
}

/// A wire message read in place: what [`ConversionPlan::index`] returns.
/// Read it through [`Route`]s compiled against the same plan:
/// [`WireView::get`] converts the bytes where the tape says they are.
#[derive(Debug, Clone)]
pub struct WireView<'a> {
    root: &'a ElemPlan,
    payload: &'a [u8],
    order: ByteOrder,
    words: &'a [u32],
    texts: Vec<&'a str>,
}

/// One step of an access path, from the top-level record down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// Into field `i` of a record.
    Field(usize),
    /// Into the element of an array that the next subscript names.
    Index,
}

/// Why a path could not be followed through a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// A subscript at or past the end of an array.
    OutOfBounds {
        /// The subscript.
        index: usize,
        /// The array's length.
        len: usize,
    },
    /// An index step into something that is not an array.
    NotArray,
    /// A field step into something that is not a record, or past its last
    /// field.
    NoField,
    /// Bytes that do not hold what the route expects — not possible on a
    /// view [`ConversionPlan::index`] returned for the plan that compiled the
    /// route: the index pass checked them.
    Unchecked,
}

/// An access path compiled against the plan that indexes the messages it
/// reads ([`ConversionPlan::route`]): what each step does on the tape is
/// decided once, so following it through a message touches the tape and
/// the bytes, not the plan. A path into a field the projection dropped, or
/// to a whole record, is walked step by step instead — with the same
/// result, at the cost of looking the plan up as it goes.
#[derive(Debug, Clone)]
pub struct Route {
    start: Start,
    end: End,
    path: Box<[PathStep]>,
}

impl Route {
    /// Whether the route ends at a number, a char or an enum: what it reads
    /// holds no string.
    pub fn is_scalar(&self) -> bool {
        matches!(self.end, End::Int(..) | End::Scalar(_))
    }
}

/// How a route gets to its end. A top-level field, and a field of an
/// element of a top-level array, are straight-line — every read of the
/// benchmark's morphing workloads is one of the two, and following them as
/// hops instead costs `cor_v2v1` 8% of its throughput (EXPERIMENTS.md);
/// anything deeper follows its hops one by one.
#[derive(Debug, Clone)]
enum Start {
    /// The top-level field whose slot is at `word` (`packed`: a fixed-size
    /// field, read at the payload offset the slot holds).
    Field { word: u32, packed: bool },
    /// Field `word` of element `k` of the top-level variable-element array
    /// whose slot is at `array`.
    ElemField { array: u32, word: u32, packed: bool },
    /// Any other path.
    Hops(Box<[Hop]>),
}

/// One step of a route, from a tape word or payload offset to the next.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// To the slot `n` words into the block here.
    Slot(u32),
    /// To the payload offset held by the fixed-size field's slot `n` words
    /// into the block here.
    Packed(u32),
    /// To the slot of element `k` of the variable-element array here.
    Table,
    /// To the payload offset of element `k` of the array of fixed-size
    /// elements, `stride` bytes each, whose slot is here.
    Strided(u32),
    /// `n` bytes further into a fixed-size record.
    Bytes(u32),
    /// To element `k` of the fixed array of `len` elements here.
    Fixed { len: usize, stride: u32 },
}

/// A scalar that is not an integer, by the plan it decodes with.
#[derive(Debug, Clone, Copy)]
enum Scalar {
    F32,
    F64,
    Char,
    Enum,
}

impl Scalar {
    fn plan(self) -> ElemPlan {
        match self {
            Scalar::F32 => ElemPlan::F32,
            Scalar::F64 => ElemPlan::F64,
            Scalar::Char => ElemPlan::Char,
            Scalar::Enum => ElemPlan::Enum,
        }
    }
}

/// What a route reads where its hops end.
#[derive(Debug, Clone)]
enum End {
    /// An integer at a payload offset.
    Int(IntRead, IntConv),
    /// Another scalar at a payload offset.
    Scalar(Scalar),
    /// A string's slot.
    Str,
    /// Anything else: walked step by step.
    Walk,
}

impl ConversionPlan {
    /// Compiles `path` against this plan, for [`WireView::get`] on the views
    /// [`ConversionPlan::index`] returns. A route of another plan reads
    /// whatever its hops land on.
    pub fn route(&self, path: &[PathStep]) -> Route {
        let (hops, end) = compile_route(&self.root, path).unwrap_or((Vec::new(), End::Walk));
        let start = match hops[..] {
            [Hop::Slot(word)] => Start::Field { word, packed: false },
            [Hop::Packed(word)] => Start::Field { word, packed: true },
            [Hop::Slot(array), Hop::Table, Hop::Slot(word)] => {
                Start::ElemField { array, word, packed: false }
            }
            [Hop::Slot(array), Hop::Table, Hop::Packed(word)] => {
                Start::ElemField { array, word, packed: true }
            }
            _ => Start::Hops(hops.into()),
        };
        // Only a route that walks needs its path again.
        let path = match end {
            End::Walk => path.into(),
            _ => Box::default(),
        };
        Route { start, end, path }
    }
}

/// The hops of `path` from `root` and what its end holds; `None` for a path
/// the route walks.
fn compile_route(root: &ElemPlan, path: &[PathStep]) -> Option<(Vec<Hop>, End)> {
    let mut hops = Vec::with_capacity(path.len());
    let (mut elem, mut packed) = (root, fixed_size(root).is_some());
    for step in path {
        elem = match (*step, elem) {
            (PathStep::Field(i), ElemPlan::Record(rp)) => {
                let step = rp.steps.get(i)?;
                let slot = step.slot;
                step.dst?;
                hops.push(match packed {
                    true => Hop::Bytes(rp.fixed.and(Some(slot.byte))?),
                    false if slot.size.is_some() => Hop::Packed(slot.word),
                    false => Hop::Slot(slot.word),
                });
                packed |= slot.size.is_some();
                &step.elem
            }
            (PathStep::Index, ElemPlan::Array { elem, len, stride, .. }) => {
                let stride = stride.map(u32::try_from).transpose().ok()?;
                hops.push(match (packed, stride, len) {
                    (false, Some(s), _) => Hop::Strided(s),
                    (false, None, _) => Hop::Table,
                    (true, Some(stride), LenPlan::Fixed(len)) => Hop::Fixed { len: *len, stride },
                    (true, ..) => return None,
                });
                packed |= stride.is_some();
                elem
            }
            _ => return None,
        };
    }
    let end = match (elem, packed) {
        (ElemPlan::Int { read, conv } | ElemPlan::Count { read, conv, .. }, true) => {
            End::Int(*read, *conv)
        }
        (ElemPlan::F32, true) => End::Scalar(Scalar::F32),
        (ElemPlan::F64, true) => End::Scalar(Scalar::F64),
        (ElemPlan::Char, true) => End::Scalar(Scalar::Char),
        (ElemPlan::Enum, true) => End::Scalar(Scalar::Enum),
        (ElemPlan::Str, false) => End::Str,
        _ => End::Walk,
    };
    Some((hops, end))
}

impl<'v> WireView<'v> {
    /// The value at `route`, with `subscripts` for its index steps in order
    /// (one left out reads as past any end) — what
    /// [`ConversionPlan::execute`] decodes there, converted from the bytes
    /// in place; a record or an array is built by the same kernel.
    ///
    /// # Errors
    ///
    /// [`Miss`] when a subscript is out of bounds, or a path does not fit
    /// the message's shape.
    pub fn get(&self, route: &Route, subscripts: &[usize]) -> std::result::Result<Value, Miss> {
        let mut out = Value::Int(0);
        self.get_into(route, subscripts, &mut out)?;
        Ok(out)
    }

    /// [`WireView::get`] into `out`, which is left alone on a miss: a value
    /// built where it is wanted is not moved again.
    ///
    /// # Errors
    ///
    /// As [`WireView::get`].
    #[inline(always)]
    pub fn get_into(
        &self,
        route: &Route,
        subscripts: &[usize],
        out: &mut Value,
    ) -> std::result::Result<(), Miss> {
        match &route.end {
            End::Int(read, conv) => {
                *out = conv.apply(self.bits_at(self.follow(route, subscripts)?, *read)?);
            }
            End::Str => {
                *out = Value::Str(self.text_at(self.follow(route, subscripts)?)?.to_owned())
            }
            _ => *out = self.get_far(route, subscripts)?,
        }
        Ok(())
    }

    /// The string at `route`, borrowed from the message — what
    /// [`WireView::get`] would copy out of it; `None` when the route does
    /// not end at a string.
    ///
    /// # Errors
    ///
    /// As [`WireView::get`].
    #[inline(always)]
    pub fn text(
        &self,
        route: &Route,
        subscripts: &[usize],
    ) -> std::result::Result<Option<&'v str>, Miss> {
        match route.end {
            End::Str => self.text_at(self.follow(route, subscripts)?).map(Some),
            _ => Ok(None),
        }
    }

    /// [`WireView::get`] of anything but an integer or a string.
    #[inline(never)]
    fn get_far(&self, route: &Route, subscripts: &[usize]) -> std::result::Result<Value, Miss> {
        match &route.end {
            End::Scalar(scalar) => {
                let mut c = self.at(self.follow(route, subscripts)?);
                match self.order {
                    ByteOrder::Little => build::<Le>(&scalar.plan(), &mut c, &mut []),
                    ByteOrder::Big => build::<Be>(&scalar.plan(), &mut c, &mut []),
                }
                .map_err(|_| Miss::Unchecked)
            }
            _ => {
                let node = self.walk(&route.path, subscripts)?;
                self.read(node).map_err(|_| Miss::Unchecked)
            }
        }
    }

    /// The raw bits of the integer at payload offset `at`.
    #[inline(always)]
    fn bits_at(&self, at: u32, read: IntRead) -> std::result::Result<u64, Miss> {
        let bits = self.payload.get(at as usize..).and_then(|b| match self.order {
            ByteOrder::Little => read.bits_of::<Le>(b),
            ByteOrder::Big => read.bits_of::<Be>(b),
        });
        bits.ok_or(Miss::Unchecked)
    }

    /// The string whose slot is at word `p`, as the index pass checked it.
    #[inline(always)]
    fn text_at(&self, p: u32) -> std::result::Result<&'v str, Miss> {
        self.texts.get(self.word(p + 1) as usize).copied().ok_or(Miss::Unchecked)
    }

    /// Where `route`'s hops end: a tape word, or a payload offset past a
    /// hop into a fixed-size element.
    #[inline(always)]
    fn follow(&self, route: &Route, subscripts: &[usize]) -> std::result::Result<u32, Miss> {
        let hops = match &route.start {
            Start::Field { word, packed } => return Ok(self.deref(*word, *packed)),
            Start::ElemField { array, word, packed } => {
                let element = self.element_slot(*array, subscripts.first().copied())?;
                return Ok(self.deref(element + word, *packed));
            }
            Start::Hops(hops) => hops,
        };
        let mut subs = subscripts.iter().copied();
        let mut p = 0u32;
        for hop in hops.iter() {
            p = match *hop {
                Hop::Slot(n) => p + n,
                Hop::Packed(n) => self.word(p + n),
                Hop::Bytes(n) => p + n,
                Hop::Table => self.element_slot(p, subs.next())?,
                // Inside a block the index pass bounds-checked: `k * s` fits.
                Hop::Strided(s) => self.word(p) + in_bounds(subs.next(), self.count(p))? as u32 * s,
                Hop::Fixed { len, stride } => p + in_bounds(subs.next(), len)? as u32 * stride,
            };
        }
        Ok(p)
    }

    /// The slot of element `k` of the variable-element array whose slot is
    /// at word `p`.
    #[inline(always)]
    fn element_slot(&self, p: u32, k: Option<usize>) -> std::result::Result<u32, Miss> {
        let k = in_bounds(k, self.count(p))?;
        let (table, entries) = (self.word(p + 3), self.word(p + 4));
        // One entry stands for every element of an array whose elements
        // take no bytes.
        Ok(self.word(table + (k as u32).min(entries.saturating_sub(1))))
    }

    /// Slot word `w`, or — for a fixed-size field — the payload offset it
    /// holds.
    #[inline(always)]
    fn deref(&self, w: u32, packed: bool) -> u32 {
        if packed {
            self.word(w)
        } else {
            w
        }
    }

    /// Tape word `w`. The index pass wrote every word a route of this
    /// view's plan visits; one of another plan may find 0.
    #[inline(always)]
    fn word(&self, w: u32) -> u32 {
        self.words.get(w as usize).copied().unwrap_or(0)
    }

    /// The element count of the array whose slot is at word `p`.
    #[inline(always)]
    fn count(&self, p: u32) -> usize {
        let n = u64::from(self.word(p + 1)) | u64::from(self.word(p + 2)) << 32;
        usize::try_from(n).unwrap_or(usize::MAX)
    }

    /// A cursor at payload offset `at`.
    fn at(&self, at: u32) -> Cursor<'v> {
        Cursor::new(self.payload.get(at as usize..).unwrap_or_default(), self.order)
    }
}

/// Subscript `k` checked against an array of `len` elements.
#[inline(always)]
fn in_bounds(k: Option<usize>, len: usize) -> std::result::Result<usize, Miss> {
    match k {
        Some(k) if k < len => Ok(k),
        k => Err(Miss::OutOfBounds { index: k.unwrap_or(usize::MAX), len }),
    }
}

/// A position in a [`WireView`] for the step-by-step walk.
#[derive(Debug, Clone, Copy)]
enum Node<'v> {
    /// In the message: the element's plan and where it is.
    Wire { elem: &'v ElemPlan, pos: u32, kind: Kind },
    /// In a field the projection dropped: its default.
    Default(&'v Value),
    /// A dropped count of a kept array: that array's length, as `execute`'s
    /// length synchronisation writes it.
    Synced { n: u64, unsigned: bool },
}

/// What a wire node's `pos` means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A record of variable size; `pos` is its block.
    Block,
    /// A string, an array of variable size: `pos` is its slot.
    Slot,
    /// An element of fixed size; `pos` is its payload offset.
    Packed,
}

impl<'v> WireView<'v> {
    /// `path` walked step by step, looking each step up in the plan.
    fn walk(&self, path: &[PathStep], subscripts: &[usize]) -> std::result::Result<Node<'v>, Miss> {
        let kind = if fixed_size(self.root).is_some() { Kind::Packed } else { Kind::Block };
        let mut node = Node::Wire { elem: self.root, pos: 0, kind };
        let mut subs = subscripts.iter().copied();
        for step in path {
            node = match *step {
                PathStep::Field(i) => self.field(node, i).ok_or(Miss::NoField)?,
                PathStep::Index => {
                    let len = self.node_len(node).ok_or(Miss::NotArray)?;
                    self.element(node, in_bounds(subs.next(), len)?).ok_or(Miss::NotArray)?
                }
            };
        }
        Ok(node)
    }

    /// The element `elem` whose slot starts at word `w`.
    fn slot(&self, elem: &'v ElemPlan, w: u32, packed: bool) -> Node<'v> {
        match elem {
            _ if packed => Node::Wire { elem, pos: self.word(w), kind: Kind::Packed },
            ElemPlan::Record(_) => Node::Wire { elem, pos: w, kind: Kind::Block },
            _ => Node::Wire { elem, pos: w, kind: Kind::Slot },
        }
    }

    /// Field `i` of the record at `node`.
    fn field(&self, node: Node<'v>, i: usize) -> Option<Node<'v>> {
        let (elem, pos, kind) = match node {
            Node::Wire { elem, pos, kind } => (elem, pos, kind),
            Node::Default(v) => return Some(Node::Default(v.as_record()?.get(i)?)),
            Node::Synced { .. } => return None,
        };
        let ElemPlan::Record(rp) = elem else { return None };
        let step = rp.steps.get(i)?;
        let slot = step.slot;
        match kind {
            _ if step.dst.is_none() => self.dropped(node, rp, i),
            Kind::Block => Some(self.slot(&step.elem, pos + slot.word, slot.size.is_some())),
            Kind::Packed => {
                let at = pos + rp.fixed.and(Some(slot.byte))?;
                Some(Node::Wire { elem: &step.elem, pos: at, kind: Kind::Packed })
            }
            Kind::Slot => None,
        }
    }

    /// Field `i` of a record the projection dropped it from.
    fn dropped(&self, node: Node<'v>, rp: &'v RecordPlan, i: usize) -> Option<Node<'v>> {
        let default = rp.template.as_ref()?.get(i)?;
        Some(match rp.len_syncs.iter().find(|&&(_, count)| count == i) {
            Some(&(array, _)) => Node::Synced {
                n: self.node_len(self.field(node, array)?)? as u64,
                unsigned: matches!(default, Value::UInt(_)),
            },
            None => Node::Default(default),
        })
    }

    /// The element count of the array at `node`.
    fn node_len(&self, node: Node<'v>) -> Option<usize> {
        match node {
            Node::Wire { elem: ElemPlan::Array { .. }, pos, kind: Kind::Slot } => {
                Some(self.count(pos))
            }
            Node::Wire { elem: ElemPlan::Array { len: LenPlan::Fixed(n), .. }, .. } => Some(*n),
            Node::Default(v) => v.as_array().map(<[Value]>::len),
            _ => None,
        }
    }

    /// Element `k` of the array at `node`, which has more than `k`.
    fn element(&self, node: Node<'v>, k: usize) -> Option<Node<'v>> {
        let (ElemPlan::Array { elem, stride, .. }, pos, kind) = (match node {
            Node::Wire { elem, pos, kind } => (elem, pos, kind),
            Node::Default(v) => return v.as_array()?.get(k).map(Node::Default),
            Node::Synced { .. } => return None,
        }) else {
            return None;
        };
        Some(match (stride, kind) {
            (Some(s), Kind::Slot) => {
                Node::Wire { elem, pos: self.word(pos) + (k * s) as u32, kind: Kind::Packed }
            }
            (Some(s), _) => Node::Wire { elem, pos: pos + (k * s) as u32, kind: Kind::Packed },
            (None, _) => self.slot(elem, self.element_slot(pos, Some(k)).ok()?, false),
        })
    }

    /// The value at `node`, as [`ConversionPlan::execute`] decodes it.
    fn read(&self, node: Node<'v>) -> Result<Value> {
        match self.order {
            ByteOrder::Little => self.read_in::<Le>(node),
            ByteOrder::Big => self.read_in::<Be>(node),
        }
    }

    fn read_in<O: Order>(&self, node: Node<'v>) -> Result<Value> {
        let (elem, pos, kind) = match node {
            Node::Wire { elem, pos, kind } => (elem, pos, kind),
            Node::Default(v) => return Ok(v.clone()),
            Node::Synced { n, unsigned: true } => return Ok(Value::UInt(n)),
            Node::Synced { n, unsigned: false } => return Ok(Value::Int(n as i64)),
        };
        match (elem, kind) {
            (ElemPlan::Str, Kind::Slot) => {
                Ok(Value::Str(self.text_at(pos).map_err(|_| PbioError::UnexpectedEof)?.to_owned()))
            }
            // A record begins where its first field does.
            (ElemPlan::Record(rp), Kind::Block) => record::<O>(rp, &mut self.at(self.word(pos))),
            (ElemPlan::Array { .. }, Kind::Slot) => {
                let n = self.count(pos);
                let mut es = Vec::with_capacity(n.min(self.payload.len()));
                for k in 0..n {
                    let e = self.element(node, k).ok_or(PbioError::UnexpectedEof)?;
                    es.push(self.read_in::<O>(e)?);
                }
                Ok(Value::Array(es))
            }
            (ElemPlan::Count { read, conv, .. }, _) => {
                Ok(conv.apply(read.bits::<O>(&mut self.at(pos))?))
            }
            // A fixed-size element has no count slots.
            (elem, _) => build::<O>(elem, &mut self.at(pos), &mut []),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::encode::Encoder;
    use crate::types::{ArrayLen, BasicType, FieldType, FormatBuilder, RecordFormat, Width};

    /// `n` rows of `cols` 16-bit ints each, `cols` read first.
    fn grid() -> Arc<RecordFormat> {
        let row = FieldType::Array {
            elem: Box::new(FieldType::Basic(BasicType::Int(Width::W2))),
            len: ArrayLen::LengthField("cols".into()),
        };
        let rows = FieldType::Array { elem: Box::new(row), len: ArrayLen::LengthField("n".into()) };
        FormatBuilder::record("Grid").int("cols").int("n").field("rows", rows).build_arc().unwrap()
    }

    /// Rows of no columns take no bytes, so 100,000 of them fit in the
    /// eight bytes of the two counts: one table entry stands for all of
    /// them, and every read equals what `execute` decodes.
    #[test]
    fn elements_that_take_no_bytes_keep_one_table_entry() {
        let fmt = grid();
        let empty = Value::Array(Vec::new());
        let v = Value::Record(vec![
            Value::Int(0),
            Value::Int(100_000),
            Value::Array(vec![empty.clone(); 100_000]),
        ]);
        let msg = Encoder::new(&fmt).encode(&v).unwrap();
        assert_eq!(msg.len() - HEADER_LEN, 8);
        let plan = ConversionPlan::identity(&fmt).unwrap();
        let mut tape = Tape::default();
        let view = plan.index(&msg, &mut tape).unwrap();
        let (cols, n) = (plan.route(&[PathStep::Field(0)]), plan.route(&[PathStep::Field(1)]));
        let row = plan.route(&[PathStep::Field(2), PathStep::Index]);
        assert_eq!(view.get(&n, &[]), Ok(Value::Int(100_000)));
        assert_eq!(view.get(&row, &[99_999]), Ok(empty));
        assert_eq!(view.get(&cols, &[]), Ok(Value::Int(0)));
        assert_eq!(view.get(&plan.route(&[]), &[]), Ok(plan.execute(&msg).unwrap()));
        // The root block (two counts, the rows' five words), one row's slot
        // (an array of fixed-size elements: three words), one table entry.
        assert_eq!(tape.words.len(), 2 + 5 + 3 + 1);
    }

    /// A plan that converts between two formats does not read in place.
    #[test]
    fn only_identity_or_projected_plans_index() {
        let (a, b) = (grid(), FormatBuilder::record("Grid").int("n").build_arc().unwrap());
        let msg = Encoder::new(&a)
            .encode(&Value::Record(vec![Value::Int(0), Value::Int(0), Value::Array(vec![])]))
            .unwrap();
        let plan = ConversionPlan::compile(&a, &b).unwrap();
        assert!(matches!(plan.index(&msg, &mut Tape::default()), Err(PbioError::BadFormat(_))));
    }
}

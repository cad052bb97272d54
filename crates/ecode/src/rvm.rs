//! The register virtual machine — executes [`RCode`](crate::bytecode::RCode)
//! produced by the lowering pass.
//!
//! Values are [`pbio::Value`] trees; access paths into the bound root
//! records are resolved through pre-compiled field indices, so execution
//! never consults format meta-data except to materialize default elements
//! when a write extends an array (the `old.src_list[src_count] = ...`
//! pattern of the paper's Fig. 5, where the output list grows as the
//! transformation discovers sources). The register file lives in one flat
//! `Vec<Value>`; user-function calls open a fresh window at the top
//! (Lua-style), with arguments cloned into the callee's low registers.
//!
//! Root 0 — the incoming message — is read-only and always read in place
//! from the wire ([`pbio::WireView`], along routes compiled once per plan);
//! roots 1 and up are the values the run writes. There is one dispatch
//! loop, over that one arrangement of roots.
//!
//! The tree-walking interpreter (`interp.rs`) is the semantic reference:
//! differential tests hold this engine to its final roots, error strings
//! and the partial state an error leaves behind.
//!
//! One superinstruction folds whole statement sequences into one dispatch:
//! [`RInsn::CopyPath`] moves a row of fields between roots (each with an
//! optional scalar conversion) in a single dispatch and one destination
//! navigation; a row that fills a whole new array element appends it by
//! value.
//!
//! The instruction budget (fuel) covers what a run allocates as well as
//! what it dispatches: a write that extends an array by *k* elements costs
//! *k* units, a concatenation one unit per byte of its result, and every
//! copy of a string — a constant, a move, a load, a store, a copy-row
//! entry, a call's arguments and its return value — one unit per byte
//! copied, each charged before the allocation is made (a whole record or
//! array read in place is built from the message's bytes first, and paid
//! before it is stored).

use pbio::{FieldType, RecordFormat, Value};

use crate::bytecode::{CSeg, CopyEntry, CopyRow, RCode, RInsn, ScalarConv};
use crate::error::{EcodeError, Result};
use crate::tast::{ArithOp, Binding, Builtin, CmpOp};

/// Maximum user-function call depth (independent of fuel).
const MAX_CALL_DEPTH: usize = 64;

struct Frame {
    ret_pc: usize,
    ret_dst: u32,
    prev_base: usize,
}

/// The register VM's working memory — register file, call stack, subscript
/// scratch — kept by a caller that runs programs message after message
/// ([`FusedProgram::run_view`](crate::FusedProgram::run_view)),
/// so a run on warm scratch allocates nothing. Every run leaves the scratch
/// empty again, whether it returned or failed: no value of one message
/// outlives it here, and the next run starts from a cleared register file.
#[derive(Default)]
pub struct VmScratch {
    regs: Vec<Value>,
    frames: Vec<Frame>,
    idx: Vec<usize>,
}

impl std::fmt::Debug for VmScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmScratch").field("reg_capacity", &self.regs.capacity()).finish()
    }
}

impl VmScratch {
    fn clear(&mut self) {
        self.regs.clear();
        self.frames.clear();
        self.idx.clear();
    }
}

fn rt_err(msg: impl Into<String>) -> EcodeError {
    EcodeError::runtime(msg)
}

/// Spends `units` of the budget, or fails without spending any when fewer
/// are left: an allocation is paid for before it is made.
fn charge(fuel: &mut u64, units: u64) -> Result<()> {
    *fuel = fuel.checked_sub(units).ok_or_else(|| rt_err("instruction budget exhausted"))?;
    Ok(())
}

fn as_int(v: &Value) -> Result<i64> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(rt_err(format!("expected int in register, found {}", other.kind_name()))),
    }
}

fn as_float(v: &Value) -> Result<f64> {
    match v {
        Value::Float(f) => Ok(*f),
        other => Err(rt_err(format!("expected double in register, found {}", other.kind_name()))),
    }
}

fn as_char(v: &Value) -> Result<u8> {
    match v {
        Value::Char(c) => Ok(*c),
        other => Err(rt_err(format!("expected char in register, found {}", other.kind_name()))),
    }
}

fn as_str(v: &Value) -> Result<&str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(rt_err(format!("expected string in register, found {}", other.kind_name()))),
    }
}

/// Index-register → array subscript.
fn to_index(v: &Value) -> Result<usize> {
    match v {
        Value::Int(n) if *n >= 0 => Ok(*n as usize),
        Value::Int(n) => Err(rt_err(format!("negative array index {n}"))),
        other => Err(rt_err(format!("array index is not an int (found {})", other.kind_name()))),
    }
}

fn apply_conv(conv: ScalarConv, v: Value) -> Result<Value> {
    Ok(match (conv, v) {
        (ScalarConv::I2F, Value::Int(n)) => Value::Float(n as f64),
        (ScalarConv::F2I, Value::Float(f)) => Value::Int(f as i64),
        (ScalarConv::C2I, Value::Char(c)) => Value::Int(c as i64),
        (ScalarConv::I2C, Value::Int(n)) => Value::Char(n as u8),
        (conv, other) => {
            let want = match conv {
                ScalarConv::I2F | ScalarConv::I2C => "int",
                ScalarConv::F2I => "double",
                ScalarConv::C2I => "char",
            };
            return Err(rt_err(format!(
                "expected {want} in register, found {}",
                other.kind_name()
            )));
        }
    })
}

/// `a <op> b` as int 0/1 — ints, floats (IEEE: any comparison with a NaN
/// but `!=` is false) and strings (bytewise) alike.
fn compare<T: PartialOrd + ?Sized>(op: CmpOp, a: &T, b: &T) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    };
    i64::from(r)
}

fn iarith(op: ArithOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ArithOp::Add => Ok(a.wrapping_add(b)),
        ArithOp::Sub => Ok(a.wrapping_sub(b)),
        ArithOp::Mul => Ok(a.wrapping_mul(b)),
        ArithOp::Div => {
            if b == 0 {
                Err(rt_err("integer division by zero"))
            } else {
                Ok(a.wrapping_div(b))
            }
        }
        ArithOp::Mod => {
            if b == 0 {
                Err(rt_err("integer modulo by zero"))
            } else {
                Ok(a.wrapping_rem(b))
            }
        }
    }
}

fn farith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }
}

/// Where in a program a read happens: instruction `pc`, and for a copy
/// row its entry. A message read in place keys its compiled routes by it.
#[derive(Debug, Clone, Copy)]
struct Site {
    pc: usize,
    entry: usize,
}

/// The incoming message read in place: its view, and the program's reads
/// of it compiled against the plan that indexed it.
pub(crate) struct Routed<'a> {
    pub(crate) view: &'a pbio::WireView<'a>,
    pub(crate) routes: &'a ViewRoutes,
}

impl Routed<'_> {
    #[inline(always)]
    fn route(&self, at: Site) -> Result<&pbio::Route> {
        self.routes.get(at).ok_or_else(|| rt_err(format!("no route for instruction {}", at.pc)))
    }
}

/// A read that could not follow its path, as the tree walk reports it.
fn miss(m: pbio::Miss) -> EcodeError {
    match m {
        pbio::Miss::OutOfBounds { index, len } => {
            rt_err(format!("array index {index} out of bounds (len {len})"))
        }
        pbio::Miss::NotArray => rt_err("path index applied to a non-array value"),
        pbio::Miss::NoField => rt_err("path field does not resolve to a record slot"),
        pbio::Miss::Unchecked => rt_err("the message read in place does not fit its plan"),
    }
}

/// Walks a fused path for reading below a root record.
#[inline]
fn nav_from<'v>(mut cur: &'v Value, segs: &[CSeg], idx: &[usize]) -> Result<&'v Value> {
    let mut it = idx.iter();
    for seg in segs {
        match seg {
            CSeg::Field(i) => {
                cur = cur
                    .as_record()
                    .and_then(|fs| fs.get(*i as usize))
                    .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
            }
            CSeg::Index => {
                let n = *it.next().expect("one index per CSeg::Index");
                let arr = cur
                    .as_array()
                    .ok_or_else(|| rt_err("path index applied to a non-array value"))?;
                cur = arr.get(n).ok_or_else(|| {
                    rt_err(format!("array index {n} out of bounds (len {})", arr.len()))
                })?;
            }
        }
    }
    Ok(cur)
}

/// The bytes of every string in `v`: what copying it costs the budget.
pub(crate) fn text_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => s.len() as u64,
        Value::Record(vs) | Value::Array(vs) => vs.iter().map(text_bytes).sum(),
        _ => 0,
    }
}

/// A clone of `v`, its string bytes paid from `fuel` before it is made.
#[inline(always)]
fn paid_clone(v: &Value, fuel: &mut u64) -> Result<Value> {
    charge(fuel, text_bytes(v))?;
    Ok(v.clone())
}

/// A root to read: the message read in place (root 0), or a value root.
///
/// A read writes its value into the slot it is for — a register, a field
/// of the record a row builds — rather than returning it: a value built from
/// the wire and then moved through the stack is stored piece by piece and
/// reloaded whole, and that reload stalls.
#[derive(Clone, Copy)]
enum Src<'a> {
    View(&'a Routed<'a>),
    Tree(&'a Value),
}

impl Src<'_> {
    /// The value at `segs` (subscripts from `idx`) into `out`, its string
    /// bytes paid from `fuel` before they are copied; `out` is left alone
    /// when the read or the payment fails. A whole record or array read in
    /// place is built from the message's bytes first (at most the message's
    /// length), and paid before it is stored.
    #[inline(always)]
    fn load_into(
        self,
        at: Site,
        segs: &[CSeg],
        idx: &[usize],
        out: &mut Value,
        fuel: &mut u64,
    ) -> Result<()> {
        match self {
            Src::Tree(root) => *out = paid_clone(nav_from(root, segs, idx)?, fuel)?,
            Src::View(r) => {
                let route = r.route(at)?;
                if route.is_scalar() {
                    return r.view.get_into(route, idx, out).map_err(miss);
                }
                if let Some(s) = r.view.text(route, idx).map_err(miss)? {
                    charge(fuel, s.len() as u64)?;
                    *out = Value::Str(s.to_owned());
                    return Ok(());
                }
                let v = r.view.get(route, idx).map_err(miss)?;
                charge(fuel, text_bytes(&v))?;
                *out = v;
            }
        }
        Ok(())
    }

    /// The length of the array at `segs`; `None` when no array is there.
    #[inline]
    fn len_of(self, at: Site, segs: &[CSeg], idx: &[usize]) -> Result<Option<usize>> {
        match self {
            Src::Tree(root) => Ok(nav_from(root, segs, idx)?.as_array().map(<[Value]>::len)),
            Src::View(r) => r.view.len(r.route(at)?, idx).map_err(miss),
        }
    }
}

/// A fused program's reads of root 0, each path compiled against the plan
/// that indexes its messages ([`pbio::ConversionPlan::route`]): what
/// [`FusedProgram::run_view`](crate::FusedProgram::run_view) reads through.
/// Build once per plan with
/// [`FusedProgram::routes`](crate::FusedProgram::routes).
#[derive(Debug, Clone)]
pub struct ViewRoutes {
    /// Per instruction, its first read site.
    first: Vec<u32>,
    /// Per read site, its route; [`NO_ROUTE`] for a read of another root.
    sites: Vec<u32>,
    /// Each path read, compiled once however often it is read.
    routes: Vec<pbio::Route>,
}

/// The site of a read that does not read root 0.
const NO_ROUTE: u32 = u32::MAX;

impl ViewRoutes {
    /// Compiles every path `code` reads root 0 along against `plan`.
    pub(crate) fn compile(code: &RCode, plan: &pbio::ConversionPlan) -> ViewRoutes {
        let mut seen: std::collections::HashMap<Vec<pbio::PathStep>, u32> = Default::default();
        let mut routes = Vec::new();
        let mut route = |segs: &[CSeg]| {
            let path: Vec<pbio::PathStep> = segs
                .iter()
                .map(|seg| match seg {
                    CSeg::Field(i) => pbio::PathStep::Field(*i as usize),
                    CSeg::Index => pbio::PathStep::Index,
                })
                .collect();
            *seen.entry(path).or_insert_with_key(|path| {
                routes.push(plan.route(path));
                routes.len() as u32 - 1
            })
        };
        let mut first = Vec::with_capacity(code.insns.len());
        let mut sites = Vec::new();
        for insn in &code.insns {
            first.push(sites.len() as u32);
            match insn {
                RInsn::Load { root: 0, segs, .. } | RInsn::LenOf { root: 0, segs, .. } => {
                    sites.push(route(segs));
                }
                // One site per entry, so an entry finds its route by
                // position.
                RInsn::CopyPath(row) => {
                    sites.extend(row.entries.iter().map(|e| match e.src_root {
                        0 => route(&e.src_segs),
                        _ => NO_ROUTE,
                    }))
                }
                _ => {}
            }
        }
        ViewRoutes { first, sites, routes }
    }

    #[inline(always)]
    fn get(&self, at: Site) -> Option<&pbio::Route> {
        let site = *self.first.get(at.pc)? as usize + at.entry;
        self.routes.get(*self.sites.get(site)? as usize)
    }
}

fn no_root(r: u8) -> EcodeError {
    rt_err(format!("no root #{r}"))
}

/// The roots of one run: root 0 read in place, roots 1 and up as values.
struct Roots<'r> {
    view: &'r Routed<'r>,
    values: &'r mut [Value],
}

impl Roots<'_> {
    #[inline]
    fn get(&self, r: u8) -> Result<Src<'_>> {
        match (r as usize).checked_sub(1) {
            None => Ok(Src::View(self.view)),
            Some(i) => self.values.get(i).map(Src::Tree).ok_or_else(|| no_root(r)),
        }
    }

    /// Root `r` to write, next to every other root to read.
    #[inline]
    fn split(&mut self, r: u8) -> Result<(&mut Value, Around<'_>)> {
        let i = (r as usize)
            .checked_sub(1)
            .ok_or_else(|| rt_err("root #0 is read in place and cannot be written"))?;
        let (below, at) = self.values.split_at_mut(i.min(self.values.len()));
        let (dst, above) = at.split_first_mut().ok_or_else(|| no_root(r))?;
        Ok((dst, Around { view: self.view, below, above, dst: r }))
    }
}

/// The roots a write reads from while its destination is borrowed.
struct Around<'a> {
    view: &'a Routed<'a>,
    below: &'a [Value],
    above: &'a [Value],
    dst: u8,
}

impl<'a> Around<'a> {
    /// Root `r`, which must not be the destination.
    #[inline]
    fn get(&self, r: u8) -> Result<Src<'a>> {
        if r == self.dst {
            return Err(rt_err("copy row reads its destination"));
        }
        let v = match (r as usize).checked_sub(1) {
            None => return Ok(Src::View(self.view)),
            Some(i) if i < self.below.len() => self.below.get(i),
            Some(i) => self.above.get(i - self.below.len() - 1),
        };
        v.map(Src::Tree).ok_or_else(|| no_root(r))
    }
}

/// The declared type at the current position of a writing navigation.
#[derive(Clone, Copy)]
enum TyRef<'f> {
    Rec(&'f RecordFormat),
    Ty(&'f FieldType),
}

/// The array a writing navigation is about to subscript, with its declared
/// element type (what out-of-bounds writes extend it with).
fn array_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
) -> Result<(&'v mut Vec<Value>, &'f FieldType)> {
    let elem_ty = match ty {
        TyRef::Ty(FieldType::Array { elem, .. }) => elem.as_ref(),
        _ => return Err(rt_err("path index applied to a non-array field")),
    };
    let arr =
        cur.as_array_mut().ok_or_else(|| rt_err("path index applied to a non-array value"))?;
    Ok((arr, elem_ty))
}

/// Element `n` of `arr`, first extending the array with default elements
/// when `n` is at or past its end — one unit of `fuel` per element added.
fn elem_mut<'v>(
    arr: &'v mut Vec<Value>,
    elem_ty: &FieldType,
    n: usize,
    fuel: &mut u64,
) -> Result<&'v mut Value> {
    if n >= arr.len() {
        charge(fuel, (n + 1 - arr.len()) as u64)?;
        arr.resize_with(n + 1, || Value::default_for(elem_ty));
    }
    Ok(&mut arr[n])
}

/// Record field `i` below a writing navigation.
fn field_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
    i: u32,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    let i = i as usize;
    let field_ty = match ty {
        TyRef::Rec(r) => r.fields().get(i),
        TyRef::Ty(FieldType::Record(r)) => r.fields().get(i),
        _ => None,
    }
    .ok_or_else(|| rt_err("path field does not match the bound format"))?
    .ty();
    let cur = cur
        .as_record_mut()
        .and_then(|fs| fs.get_mut(i))
        .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
    Ok((cur, TyRef::Ty(field_ty)))
}

/// One segment of a writing navigation; `idx` supplies the subscript of a
/// [`CSeg::Index`], and `fuel` pays for the elements it adds.
fn descend_mut<'v, 'f>(
    cur: &'v mut Value,
    ty: TyRef<'f>,
    seg: CSeg,
    idx: &mut std::slice::Iter<'_, usize>,
    fuel: &mut u64,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    match seg {
        CSeg::Field(i) => field_mut(cur, ty, i),
        CSeg::Index => {
            let n = *idx.next().expect("one index per CSeg::Index");
            let (arr, elem_ty) = array_mut(cur, ty)?;
            Ok((elem_mut(arr, elem_ty, n, fuel)?, TyRef::Ty(elem_ty)))
        }
    }
}

/// [`descend_mut`] along every segment of `segs`.
fn walk_mut<'v, 'f>(
    mut cur: &'v mut Value,
    mut ty: TyRef<'f>,
    segs: &[CSeg],
    idx: &mut std::slice::Iter<'_, usize>,
    fuel: &mut u64,
) -> Result<(&'v mut Value, TyRef<'f>)> {
    for seg in segs {
        (cur, ty) = descend_mut(cur, ty, *seg, idx, fuel)?;
    }
    Ok((cur, ty))
}

/// Navigates a fused path for writing, auto-extending arrays with
/// format-appropriate default elements, and stores `value` at the end.
fn write_path(
    dst: &mut Value,
    binding: &Binding,
    segs: &[CSeg],
    idx: &[usize],
    value: Value,
    fuel: &mut u64,
) -> Result<()> {
    *walk_mut(dst, TyRef::Rec(&binding.format), segs, &mut idx.iter(), fuel)?.0 = value;
    Ok(())
}

/// C `atoi` semantics: optional whitespace, optional sign, leading digits;
/// anything unparsable is 0.
pub(crate) fn atoi(s: &str) -> i64 {
    let t = s.trim_start();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t.strip_prefix('+').unwrap_or(t)),
    };
    let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
    let v = digits.parse::<i64>().unwrap_or(0);
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

/// C `atof`-ish semantics: after leading whitespace, the longest prefix
/// Rust's float parser accepts, found in one scan ([`float_prefix`]) and
/// parsed once; 0.0 when no prefix parses.
pub(crate) fn atof(s: &str) -> f64 {
    let t = s.trim_start();
    t[..float_prefix(t.as_bytes())].parse().unwrap_or(0.0)
}

/// The length of the longest prefix of `b` in the grammar of `f64`'s
/// `FromStr`: an optional sign, then `inf`, `infinity` or `nan` in any case,
/// or a number — digits with an optional `.` and fraction, at least one
/// digit in all, and an exponent (`e`, optional sign, digits) only when it
/// has a digit. Every byte of the grammar is ASCII, so the prefix ends on a
/// character boundary.
fn float_prefix(b: &[u8]) -> usize {
    let digits = |from: usize| from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let sign = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let word =
        |w: &str| b.get(sign..sign + w.len()).is_some_and(|p| p.eq_ignore_ascii_case(w.as_bytes()));
    if let Some(w) = ["infinity", "inf", "nan"].into_iter().find(|w| word(w)) {
        return sign + w.len();
    }
    let mut end = digits(sign);
    let whole = end > sign;
    if b.get(end) == Some(&b'.') {
        let frac_end = digits(end + 1);
        if whole || frac_end > end + 1 {
            end = frac_end;
        }
    }
    if end == sign {
        return 0;
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let exp = end + 1 + usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        let exp_end = digits(exp);
        if exp_end > exp {
            end = exp_end;
        }
    }
    end
}

/// `a` followed by `b`, its bytes paid from `fuel` first.
fn concat(a: &str, b: &str, fuel: &mut u64) -> Result<Value> {
    charge(fuel, (a.len() + b.len()) as u64)?;
    let mut s = String::with_capacity(a.len() + b.len());
    s.push_str(a);
    s.push_str(b);
    Ok(Value::Str(s))
}

/// `builtin(args...)`, the arguments read from the `args` registers of
/// `frame`; `strcat` pays for its result from `fuel`.
fn call_builtin(b: Builtin, args: &[u32], frame: &[Value], fuel: &mut u64) -> Result<Value> {
    let arg = |k: usize| &frame[args[k] as usize];
    Ok(match (b, args.len()) {
        (Builtin::Strlen, 1) => Value::Int(as_str(arg(0))?.len() as i64),
        (Builtin::Strcat, 2) => concat(as_str(arg(0))?, as_str(arg(1))?, fuel)?,
        (Builtin::AbsI, 1) => Value::Int(as_int(arg(0))?.wrapping_abs()),
        (Builtin::AbsF, 1) => Value::Float(as_float(arg(0))?.abs()),
        (Builtin::MinI, 2) => Value::Int(as_int(arg(0))?.min(as_int(arg(1))?)),
        (Builtin::MaxI, 2) => Value::Int(as_int(arg(0))?.max(as_int(arg(1))?)),
        (Builtin::MinF, 2) => Value::Float(as_float(arg(0))?.min(as_float(arg(1))?)),
        (Builtin::MaxF, 2) => Value::Float(as_float(arg(0))?.max(as_float(arg(1))?)),
        (Builtin::Sqrt, 1) => Value::Float(as_float(arg(0))?.sqrt()),
        (Builtin::Floor, 1) => Value::Float(as_float(arg(0))?.floor()),
        (Builtin::Ceil, 1) => Value::Float(as_float(arg(0))?.ceil()),
        (Builtin::Atoi, 1) => Value::Int(atoi(as_str(arg(0))?)),
        (Builtin::Itoa, 1) => Value::Str(as_int(arg(0))?.to_string()),
        (Builtin::Atof, 1) => Value::Float(atof(as_str(arg(0))?)),
        (Builtin::Ftoa, 1) => Value::Str(as_float(arg(0))?.to_string()),
        (b, n) => return Err(rt_err(format!("builtin {b:?} called with {n} arguments"))),
    })
}

/// One row entry's value — its source, read (its string bytes paid from
/// `fuel`) and converted — into `out`, which is left alone when the read,
/// the payment or the conversion fails. `frame` is the current register
/// window.
#[inline(always)]
fn read_entry(
    src: Src<'_>,
    at: Site,
    e: &CopyEntry,
    frame: &[Value],
    fuel: &mut u64,
    idx_scratch: &mut Vec<usize>,
    out: &mut Value,
) -> Result<()> {
    idx_scratch.clear();
    for &r in e.src_idx.iter() {
        idx_scratch.push(to_index(&frame[r as usize])?);
    }
    match e.conv {
        None => src.load_into(at, &e.src_segs, idx_scratch, out, fuel),
        Some(conv) => {
            let mut raw = Value::Int(0);
            src.load_into(at, &e.src_segs, idx_scratch, &mut raw, fuel)?;
            *out = apply_conv(conv, raw)?;
            Ok(())
        }
    }
}

/// [`read_entry`] of an entry after a row's first, read while the row's
/// destination is borrowed, charging its fuel.
#[inline(always)]
fn next_entry(
    around: &Around<'_>,
    at: Site,
    e: &CopyEntry,
    frame: &[Value],
    fuel: &mut u64,
    idx_scratch: &mut Vec<usize>,
    out: &mut Value,
) -> Result<()> {
    charge(fuel, 1)?;
    read_entry(around.get(e.src_root)?, at, e, frame, fuel, idx_scratch, out)
}

/// Executes one [`RInsn::CopyPath`]; see [`CopyRow`] for the contract. Entry
/// 0 was paid for by the dispatch; every further entry charges `fuel`, and
/// is read straight into the field it fills.
fn copy_row(
    row: &CopyRow,
    pc: usize,
    roots: &mut Roots<'_>,
    bindings: &[Binding],
    frame: &[Value],
    fuel: &mut u64,
    idx_scratch: &mut Vec<usize>,
) -> Result<()> {
    let (first, rest) = row.entries.split_first().ok_or_else(|| rt_err("empty copy row"))?;
    // Entry 0 reads before the destination is touched, as a lone copy does
    // (and, alone, may read the destination's own root).
    let mut v0 = Value::Int(0);
    let at = Site { pc, entry: 0 };
    read_entry(roots.get(first.src_root)?, at, first, frame, fuel, idx_scratch, &mut v0)?;
    idx_scratch.clear();
    for &r in row.dst_idx.iter() {
        idx_scratch.push(to_index(&frame[r as usize])?);
    }
    let mut it = idx_scratch.iter();
    let binding = bindings.get(row.dst_root as usize).ok_or_else(|| no_root(row.dst_root))?;
    let ty = TyRef::Rec(&binding.format);
    // The remaining entries read while the destination record is borrowed,
    // so the roots are split around it.
    let (dst, around) = roots.split(row.dst_root)?;
    if rest.is_empty() {
        let (rec, ty) = walk_mut(dst, ty, &row.dst_segs, &mut it, fuel)?;
        *descend_mut(rec, ty, first.dst_leaf, &mut it, fuel)?.0 = v0;
        return Ok(());
    }

    // One navigation to the destination record. Its leaves are fields, so
    // the subscripts are spent once it is reached and the scratch is free
    // for the sources again.
    let (rec, ty) = match row.dst_segs.split_last() {
        Some((CSeg::Index, head)) if row.whole => {
            let (cur, ty) = walk_mut(dst, ty, head, &mut it, fuel)?;
            let n = *it.next().expect("one index per CSeg::Index");
            let (arr, elem_ty) = array_mut(cur, ty)?;
            if n == arr.len() {
                // A whole new element: paid for as the one element that
                // extending would add, then built from the copied values and
                // pushed. A row that stops early leaves the default element
                // with the values it got to, as extending first would have.
                charge(fuel, 1)?;
                let mut fields = Vec::with_capacity(row.entries.len());
                fields.push(v0);
                for (j, e) in (1..).zip(rest) {
                    let at = Site { pc, entry: j };
                    fields.push(Value::Int(0));
                    let slot = fields.last_mut().expect("just pushed");
                    if let Err(err) = next_entry(&around, at, e, frame, fuel, idx_scratch, slot) {
                        fields.pop();
                        let mut elem = Value::default_for(elem_ty);
                        if let Some(slots) = elem.as_record_mut() {
                            slots.iter_mut().zip(fields).for_each(|(slot, v)| *slot = v);
                        }
                        arr.push(elem);
                        return Err(err);
                    }
                }
                arr.push(Value::Record(fields));
                return Ok(());
            }
            (elem_mut(arr, elem_ty, n, fuel)?, TyRef::Ty(elem_ty))
        }
        _ => walk_mut(dst, ty, &row.dst_segs, &mut it, fuel)?,
    };
    *leaf_of(first, rec, ty)? = v0;
    for (j, e) in (1..).zip(rest) {
        let out = leaf_of(e, rec, ty)?;
        next_entry(&around, Site { pc, entry: j }, e, frame, fuel, idx_scratch, out)?;
    }
    Ok(())
}

/// The field of `rec` that row entry `e` fills.
fn leaf_of<'v>(e: &CopyEntry, rec: &'v mut Value, ty: TyRef<'_>) -> Result<&'v mut Value> {
    let CSeg::Field(leaf) = e.dst_leaf else {
        return Err(rt_err("copy row leaf is not a field"));
    };
    Ok(field_mut(rec, ty, leaf)?.0)
}

/// Executes register bytecode under an instruction budget, which also pays
/// for what the run allocates and copies (see the module documentation):
/// root 0 is read in place through `view` — the incoming message as
/// [`pbio::ConversionPlan::index`] left it — and `rest` holds roots 1 and
/// up. Root 0 is never written: a program that tries fails at that
/// instruction. Checks the roots against the program, prepares `scratch`,
/// runs, and leaves `scratch` empty again.
///
/// # Errors
///
/// Returns [`EcodeError::Runtime`] on division by zero, out-of-bounds reads,
/// shape mismatches between the roots and the bound formats, or fuel
/// exhaustion.
pub(crate) fn run_view(
    code: &RCode,
    bindings: &[Binding],
    view: &Routed<'_>,
    rest: &mut [Value],
    fuel: u64,
    scratch: &mut VmScratch,
) -> Result<()> {
    let got = 1 + rest.len();
    if got != code.n_roots {
        let expects = code.n_roots;
        return Err(rt_err(format!("program expects {expects} root record(s), got {got}")));
    }
    debug_assert!(scratch.regs.is_empty(), "every run leaves the scratch empty");
    scratch.regs.resize(code.n_regs, Value::Int(0));
    let result = execute(code, bindings, Roots { view, values: rest }, fuel, scratch);
    scratch.clear();
    result
}

/// The dispatch loop, over a prepared `scratch`.
fn execute(
    code: &RCode,
    bindings: &[Binding],
    mut roots: Roots<'_>,
    mut fuel: u64,
    scratch: &mut VmScratch,
) -> Result<()> {
    let VmScratch { regs, frames, idx: idx_scratch } = scratch;
    let mut base: usize = 0;
    let mut pc: usize = 0;

    macro_rules! reg {
        ($r:expr) => {
            regs[base + $r as usize]
        };
    }

    loop {
        if fuel == 0 {
            return Err(rt_err("instruction budget exhausted"));
        }
        fuel -= 1;
        let at = pc;
        let insn = code
            .insns
            .get(pc)
            .ok_or_else(|| rt_err("program counter ran off the end of the code"))?;
        pc += 1;
        match insn {
            RInsn::ConstI { dst, v } => reg!(*dst) = Value::Int(*v),
            RInsn::ConstF { dst, v } => reg!(*dst) = Value::Float(*v),
            RInsn::ConstC { dst, v } => reg!(*dst) = Value::Char(*v),
            RInsn::ConstS { dst, s } => {
                let s = &code.strings[*s as usize];
                charge(&mut fuel, s.len() as u64)?;
                reg!(*dst) = Value::Str(s.clone());
            }
            RInsn::Move { dst, src } => {
                let v = paid_clone(&reg!(*src), &mut fuel)?;
                reg!(*dst) = v;
            }
            RInsn::Load { dst, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let src = roots.get(*root)?;
                let at = Site { pc: at, entry: 0 };
                src.load_into(at, segs, idx_scratch, &mut reg!(*dst), &mut fuel)?;
            }
            RInsn::Store { src, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let v = paid_clone(&reg!(*src), &mut fuel)?;
                let binding = bindings
                    .get(*root as usize)
                    .ok_or_else(|| rt_err(format!("no root #{root}")))?;
                write_path(roots.split(*root)?.0, binding, segs, idx_scratch, v, &mut fuel)?;
            }
            RInsn::LenOf { dst, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let n = roots
                    .get(*root)?
                    .len_of(Site { pc: at, entry: 0 }, segs, idx_scratch)?
                    .ok_or_else(|| rt_err("len applied to a non-array value"))?;
                reg!(*dst) = Value::Int(n as i64);
            }
            RInsn::IArith { op, dst, a, b } => {
                let x = as_int(&reg!(*a))?;
                let y = as_int(&reg!(*b))?;
                reg!(*dst) = Value::Int(iarith(*op, x, y)?);
            }
            RInsn::FArith { op, dst, a, b } => {
                let x = as_float(&reg!(*a))?;
                let y = as_float(&reg!(*b))?;
                reg!(*dst) = Value::Float(farith(*op, x, y));
            }
            RInsn::ICmp { op, dst, a, b } => {
                let x = as_int(&reg!(*a))?;
                let y = as_int(&reg!(*b))?;
                reg!(*dst) = Value::Int(compare(*op, &x, &y));
            }
            RInsn::FCmp { op, dst, a, b } => {
                let x = as_float(&reg!(*a))?;
                let y = as_float(&reg!(*b))?;
                reg!(*dst) = Value::Int(compare(*op, &x, &y));
            }
            RInsn::SCmp { op, dst, a, b } => {
                let r = {
                    let x = as_str(&reg!(*a))?;
                    let y = as_str(&reg!(*b))?;
                    compare(*op, x, y)
                };
                reg!(*dst) = Value::Int(r);
            }
            RInsn::AddImmI { dst, src, imm } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(x.wrapping_add(*imm));
            }
            RInsn::Concat { dst, a, b } => {
                let s = concat(as_str(&reg!(*a))?, as_str(&reg!(*b))?, &mut fuel)?;
                reg!(*dst) = s;
            }
            RInsn::NegI { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(x.wrapping_neg());
            }
            RInsn::NegF { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Float(-x);
            }
            RInsn::Not { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(i64::from(x == 0));
            }
            RInsn::I2F { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Float(x as f64);
            }
            RInsn::F2I { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Int(x as i64);
            }
            RInsn::C2I { dst, src } => {
                let x = as_char(&reg!(*src))?;
                reg!(*dst) = Value::Int(x as i64);
            }
            RInsn::I2C { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Char(x as u8);
            }
            RInsn::FTest { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Int(i64::from(x != 0.0));
            }
            RInsn::Jmp(t) => pc = *t as usize,
            RInsn::Jz { cond, target } => {
                if as_int(&reg!(*cond))? == 0 {
                    pc = *target as usize;
                }
            }
            RInsn::Jnz { cond, target } => {
                if as_int(&reg!(*cond))? != 0 {
                    pc = *target as usize;
                }
            }
            RInsn::Call { f, dst, args } => {
                let v = call_builtin(*f, args, &regs[base..], &mut fuel)?;
                reg!(*dst) = v;
            }
            RInsn::CallFn { f, dst, args } => {
                if frames.len() >= MAX_CALL_DEPTH {
                    return Err(rt_err("call stack overflow"));
                }
                let fc = code
                    .funcs
                    .get(*f as usize)
                    .ok_or_else(|| rt_err(format!("no function #{f}")))?;
                if args.len() > fc.n_regs as usize {
                    return Err(rt_err("function call passes more arguments than registers"));
                }
                let new_base = regs.len();
                regs.resize(new_base + fc.n_regs as usize, Value::Int(0));
                for (k, &r) in args.iter().enumerate() {
                    let v = paid_clone(&regs[base + r as usize], &mut fuel)?;
                    regs[new_base + k] = v;
                }
                frames.push(Frame { ret_pc: pc, ret_dst: *dst, prev_base: base });
                base = new_base;
                pc = fc.entry as usize;
            }
            RInsn::Ret { src } => {
                // The main body's return value is not read.
                let Some(frame) = frames.pop() else { return Ok(()) };
                let v = match src {
                    Some(r) => paid_clone(&reg!(*r), &mut fuel)?,
                    None => Value::Int(0),
                };
                regs.truncate(base);
                base = frame.prev_base;
                pc = frame.ret_pc;
                regs[base + frame.ret_dst as usize] = v;
            }
            RInsn::SyncRoot(r) => {
                let ri = *r as usize;
                let binding = bindings.get(ri).ok_or_else(|| rt_err(format!("no root #{r}")))?;
                pbio::sync_length_fields(roots.split(*r)?.0, &binding.format);
            }
            RInsn::CopyPath(row) => {
                copy_row(row, at, &mut roots, bindings, &regs[base..], &mut fuel, idx_scratch)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EcodeCompiler;
    use pbio::FormatBuilder;

    /// `code` run as a receiver runs it: `input` encoded under the first
    /// binding's format, indexed with the identity plan and read in place;
    /// `rest` is written. Returns the result as text, and `rest`.
    fn run_in_place(
        code: &RCode,
        bindings: &[Binding],
        input: &Value,
        mut rest: Vec<Value>,
        fuel: u64,
        scratch: &mut VmScratch,
    ) -> (std::result::Result<(), String>, Vec<Value>) {
        let format = &bindings[0].format;
        let wire = pbio::Encoder::new(format).encode(input).unwrap();
        let plan = pbio::ConversionPlan::identity(format).unwrap();
        let routes = ViewRoutes::compile(code, &plan);
        let mut tape = pbio::Tape::default();
        let view = Routed { view: &plan.index(&wire, &mut tape).unwrap(), routes: &routes };
        let result = run_view(code, bindings, &view, &mut rest, fuel, scratch);
        (result.map_err(|e| e.to_string()), rest)
    }

    /// `code` with every multi-entry row replaced by its entries as lone
    /// copies, jump targets moved along: the scalar sequence a row stands
    /// for, by the [`CopyRow`] contract.
    fn unfolded(code: &RCode) -> RCode {
        let mut new_pc = Vec::with_capacity(code.insns.len() + 1);
        let mut insns = Vec::new();
        for insn in &code.insns {
            new_pc.push(insns.len() as u32);
            match insn {
                RInsn::CopyPath(row) if row.entries.len() > 1 => {
                    insns.extend(row.entries.iter().map(|e| {
                        RInsn::CopyPath(CopyRow {
                            entries: [e.clone()].into(),
                            whole: false,
                            ..row.clone()
                        })
                    }));
                }
                other => insns.push(other.clone()),
            }
        }
        new_pc.push(insns.len() as u32);
        for insn in &mut insns {
            match insn {
                RInsn::Jmp(t) | RInsn::Jz { target: t, .. } | RInsn::Jnz { target: t, .. } => {
                    *t = new_pc[*t as usize];
                }
                _ => {}
            }
        }
        assert!(code.funcs.is_empty(), "the programs below declare no functions");
        RCode { insns, ..code.clone() }
    }

    /// A row is observably its entries run one after the other — under
    /// every instruction budget, so also wherever the budget runs out, and
    /// whichever entry's source fails.
    #[test]
    fn row_equals_its_entries_as_lone_copies_under_every_budget() {
        let elem = |name: &str| {
            FormatBuilder::record(name).string("info").int("id").double("w").build_arc().unwrap()
        };
        let list = |name: &str| {
            FormatBuilder::record(name).int("n").var_array_of("list", elem("E"), "n").build_arc()
        };
        let (from, to) = (list("From").unwrap(), list("To").unwrap());
        let src = "int i; int k = 0; int last; \
            for (i = 0; i < new.n - 1; i++) { \
                if (i % 2 == 0) { \
                    old.list[k].info = new.list[i].info; \
                    old.list[k].id = new.list[i].id; \
                    old.list[k].w = new.list[i].w; \
                    k++; \
                } \
                old.list[i / 2].w = new.list[i].w; \
                old.list[i / 2].info = new.list[i + 1].info; \
            } \
            last = k + 1; \
            old.list[last].id = new.list[0].id; old.list[last].w = new.list[9].w;";
        let prog = EcodeCompiler::new()
            .bind_input("new", &from)
            .bind_output("old", &to)
            .compile(src)
            .unwrap();
        let folded = prog.rcode();
        let scalar = unfolded(folded);
        let n_rows = |c: &RCode| {
            let multi = |i: &&RInsn| matches!(i, RInsn::CopyPath(r) if r.entries.len() > 1);
            c.insns.iter().filter(multi).count()
        };
        assert_eq!((n_rows(folded), n_rows(&scalar)), (2, 0));
        assert_eq!(scalar.insns.len(), folded.insns.len() + 3);

        let input = Value::Record(vec![
            Value::Int(4),
            Value::Array(
                (0..4)
                    .map(|i| {
                        Value::Record(vec![
                            Value::str(format!("m{i}")),
                            Value::Int(i),
                            Value::Float(i as f64 / 2.0),
                        ])
                    })
                    .collect(),
            ),
        ]);
        let run = |code: &RCode, fuel: u64| {
            let rest = vec![Value::default_record(&to)];
            run_in_place(code, prog.bindings(), &input, rest, fuel, &mut VmScratch::default())
        };
        // The program ends in an out-of-bounds read at the second entry of
        // its last row, reached once the budget is large enough.
        let unbounded = run(folded, u64::MAX);
        assert_eq!(unbounded, run(&scalar, u64::MAX));
        assert_eq!(unbounded.0, Err("runtime error: array index 9 out of bounds (len 4)".into()));
        let mut budget_stops = 0;
        for fuel in 0..400 {
            let got = run(folded, fuel);
            assert_eq!(got, run(&scalar, fuel), "budget {fuel}");
            budget_stops += u64::from(got != unbounded);
        }
        assert!(budget_stops > 50, "the sweep never reached the end: {budget_stops}");
    }

    /// The prefix-retry `atof` that [`atof`] replaces: every prefix parsed,
    /// the longest that parses kept — quadratic in the string, and the
    /// definition of the result.
    fn atof_by_retry(s: &str) -> f64 {
        let t = s.trim_start();
        let mut best = 0.0;
        for (i, c) in t.char_indices() {
            if let Ok(v) = t[..i + c.len_utf8()].parse::<f64>() {
                best = v;
            }
        }
        best
    }

    /// One scan finds what retrying every prefix finds, on strings built
    /// from the grammar's pieces and from junk: signs, `.5`, `1.`,
    /// exponents with and without digits, `inf`/`infinity`/`nan` in any
    /// case, junk tails and multibyte characters.
    #[test]
    fn atof_matches_the_prefix_retry_oracle() {
        const PIECES: &[&str] = &[
            "", " ", "\t", "\u{3000}", "+", "-", "0", "7", "42", "0009", ".", ".5", "1.", "e", "E",
            "e5", "E-3", "e+", "e-", "inf", "INF", "Infinity", "iNfInItY", "infinit", "nan", "NaN",
            "nAn", "x", "_", "é", "日本", "1e308", "9e999", "..", "++", "--",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut cases: Vec<String> = PIECES.iter().map(|p| p.to_string()).collect();
        for _ in 0..20_000 {
            let len = 1 + next(6);
            cases.push((0..len).map(|_| PIECES[next(PIECES.len())]).collect());
        }
        for s in &cases {
            let (got, want) = (atof(s), atof_by_retry(s));
            assert!(got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(), "{s:?}");
        }
    }

    /// A run that fails part-way — out of fuel inside a user function, with
    /// call frames open and the register file grown, or on a bad index —
    /// leaves the scratch as good as new: the next run in it returns what a
    /// run in fresh scratch returns, under every budget.
    #[test]
    fn scratch_that_saw_a_failed_run_behaves_like_fresh_scratch() {
        let list = FormatBuilder::record("L")
            .int("n")
            .var_array_of("ids", FormatBuilder::record("E").int("id").build_arc().unwrap(), "n")
            .int("pick")
            .build_arc()
            .unwrap();
        let out = FormatBuilder::record("O").int("sum").int("picked").build_arc().unwrap();
        let prog = EcodeCompiler::new()
            .bind_input("new", &list)
            .bind_output("old", &out)
            .compile(
                "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } \
                 int i; int sum = 0; \
                 for (i = 0; i < new.n; i++) { sum = sum + fib(new.ids[i].id); } \
                 old.sum = sum; old.picked = new.ids[new.pick].id;",
            )
            .unwrap();
        let run = |scratch: &mut VmScratch, pick: i64, fuel: u64| {
            let ids = (3..8).map(|id| Value::Record(vec![Value::Int(id)])).collect();
            let input = Value::Record(vec![Value::Int(5), Value::Array(ids), Value::Int(pick)]);
            let rest = vec![Value::default_record(&out)];
            run_in_place(prog.rcode(), prog.bindings(), &input, rest, fuel, scratch)
        };
        let fresh = |pick, fuel| run(&mut VmScratch::default(), pick, fuel);
        let good = fresh(2, u64::MAX);
        assert_eq!(good.1[0], Value::Record(vec![Value::Int(2 + 3 + 5 + 8 + 13), Value::Int(5)]));

        let mut scratch = VmScratch::default();
        let mut stopped_in_a_call = 0;
        for fuel in (0..600).step_by(7) {
            let starved = run(&mut scratch, 2, fuel);
            assert_eq!(starved, fresh(2, fuel), "budget {fuel}");
            stopped_in_a_call += u64::from(starved.0.is_err());
            assert!(scratch.regs.is_empty() && scratch.frames.is_empty() && scratch.idx.is_empty());
            assert_eq!(run(&mut scratch, 2, u64::MAX), good, "after running out at {fuel}");
        }
        assert!(stopped_in_a_call > 20, "the sweep must starve runs: {stopped_in_a_call}");
        let bad_index = run(&mut scratch, 9, u64::MAX);
        assert_eq!(bad_index, fresh(9, u64::MAX));
        assert_eq!(bad_index.0, Err("runtime error: array index 9 out of bounds (len 5)".into()));
        assert_eq!(run(&mut scratch, 2, u64::MAX), good, "after the bad index");
    }
}

//! The paper's format-comparison machinery: `diff` (Algorithm 1), weights,
//! the Mismatch Ratio, and the `MaxMatch` selection rule (§3.2).
//!
//! There is one traversal here. What a basic field is *worth* is its
//! parameter, a [`Weigher`]: the paper counts every field as 1 ([`Unit`]),
//! the §6 extension weighs it by dotted path
//! ([`crate::weighted::WeightProfile`]). Whether a field of one format *is
//! present in* the other is not a parameter: it is
//! [`FieldType::can_fill`], the relation the conversion plan takes and
//! defaults fields by, so what MaxMatch admits is what the plan then fills.

use std::ops::AddAssign;
use std::sync::Arc;

use pbio::{FieldType, RecordFormat};

/// Thresholds controlling how much mismatch `MaxMatch` tolerates, in the
/// mass `M` the matching sums in: field counts for the paper's, `f64`
/// importance for the weighted one ([`crate::weighted::WeightedConfig`]).
///
/// `DIFF_THRESHOLD` bounds `diff(f1, f2)` — basic fields of the incoming
/// format the receiver would drop; `MISMATCH_THRESHOLD` bounds the Mismatch
/// Ratio `Mr(f1, f2) = diff(f2, f1) / W_f2` — the fraction of the receiver
/// format that would be filled with defaults. Setting `diff_threshold` to 0
/// admits only formats whose every field the receiver understands (the
/// paper: "In order to allow just perfect matches, set DIFF_THRESHOLD to
/// zero").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig<M = usize> {
    /// Maximum tolerated `diff(f1, f2)` (field count, or importance mass).
    pub diff_threshold: M,
    /// Maximum tolerated Mismatch Ratio (fraction in `[0, 1]`).
    pub mismatch_threshold: f64,
}

impl MatchConfig {
    /// A permissive default: tolerate up to 16 dropped fields and up to half
    /// of the receiver format defaulted.
    pub fn new() -> MatchConfig {
        MatchConfig { diff_threshold: 16, mismatch_threshold: 0.5 }
    }

    /// Admit only perfect matches.
    pub fn exact() -> MatchConfig {
        MatchConfig { diff_threshold: 0, mismatch_threshold: 0.0 }
    }
}

impl Default for MatchConfig {
    fn default() -> MatchConfig {
        MatchConfig::new()
    }
}

/// How Algorithm 1 weighs one basic field — the policy the traversal below
/// is generic over.
pub(crate) trait Weigher {
    /// What the weights add up to.
    type Mass: Copy + Default + PartialOrd + AddAssign;
    /// As much of a field's position in the format tree as the weigher
    /// looks at; the default is the root, above the top-level fields.
    type Path: Default;
    /// The position of the field `name` under `parent`. An array's elements
    /// sit at the array's own position.
    fn child(&self, parent: &Self::Path, name: &str) -> Self::Path;
    /// The weight of the basic field at `at`.
    fn basic(&self, at: &Self::Path) -> Self::Mass;
    /// A mass as a term of the Mismatch Ratio.
    fn as_f64(mass: Self::Mass) -> f64;
}

/// The paper's weigher: every basic field counts 1 wherever it sits, so the
/// sums are integers and no position is tracked.
struct Unit;

impl Weigher for Unit {
    type Mass = usize;
    type Path = ();
    fn child(&self, _: &(), _: &str) {}
    fn basic(&self, _: &()) -> usize {
        1
    }
    fn as_f64(mass: usize) -> f64 {
        mass as f64
    }
}

/// The type at the bottom of an array nesting: an array weighs, and is
/// looked into, as one of its elements.
fn element(mut ty: &FieldType) -> &FieldType {
    while let FieldType::Array { elem, .. } = ty {
        ty = elem;
    }
    ty
}

/// `W_f` under `w` of a field type at `at`: the weight of its basic fields,
/// counting recursively through complex fields.
fn weigh<W: Weigher>(w: &W, ty: &FieldType, at: &W::Path) -> W::Mass {
    match element(ty) {
        FieldType::Record(r) => weight_under(w, r, at),
        _ => w.basic(at),
    }
}

/// `W_f` under `w` of a format whose fields sit under `at`.
pub(crate) fn weight_under<W: Weigher>(w: &W, format: &RecordFormat, at: &W::Path) -> W::Mass {
    let mut total = W::Mass::default();
    for f in format.fields() {
        total += weigh(w, f.ty(), &w.child(at, f.name()));
    }
    total
}

/// What one direction of Algorithm 1 found: the mass of the basic fields of
/// `f1` that are not present in `f2`, and whether there was any such field —
/// under a weigher that may weigh a field 0, zero mass does not say so.
#[derive(Clone, Copy, Default)]
pub(crate) struct Missing<M> {
    pub(crate) mass: M,
    any: bool,
}

/// Algorithm 1 under `w`, over the record level at `at`: a field of `f1` is
/// present in `f2` when `f2` has a field of that name it
/// [can fill](FieldType::can_fill). An absent field is missed with its whole
/// weight; a present one with what is missed inside it, and only records —
/// directly, or as array elements — have an inside.
pub(crate) fn miss<W: Weigher>(
    w: &W,
    f1: &RecordFormat,
    f2: &RecordFormat,
    at: &W::Path,
) -> Missing<W::Mass> {
    let mut out = Missing::default();
    for f in f1.fields() {
        let here = w.child(at, f.name());
        match f2.field(f.name()) {
            Some(g) if f.ty().can_fill(g.ty()) => {
                if let (FieldType::Record(r1), FieldType::Record(r2)) =
                    (element(f.ty()), element(g.ty()))
                {
                    let inside = miss(w, r1, r2, &here);
                    out.mass += inside.mass;
                    out.any |= inside.any;
                }
            }
            _ => {
                out.mass += weigh(w, f.ty(), &here);
                out.any = true;
            }
        }
    }
    out
}

/// The paper's weight `W_f` of a field type: the number of basic-type
/// fields, counting recursively through complex fields.
pub fn type_weight(ty: &FieldType) -> usize {
    weigh(&Unit, ty, &())
}

/// Algorithm 1: the total number of basic-type fields present in `f1` but
/// not in `f2`, recursing through complex fields by name. A field is present
/// when `f2` has a field of the same name that it can fill
/// ([`FieldType::can_fill`] — the paper borrows XML-style name-based
/// matching, §2): a convertible basic type, a record, or an array of the
/// same length discipline.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use morph::diff;
/// use pbio::FormatBuilder;
///
/// let f1 = FormatBuilder::record("M").int("a").int("b").build()?;
/// let f2 = FormatBuilder::record("M").int("a").build()?;
/// assert_eq!(diff(&f1, &f2), 1); // `b` is missing from f2
/// assert_eq!(diff(&f2, &f1), 0);
/// # Ok(())
/// # }
/// ```
pub fn diff(f1: &RecordFormat, f2: &RecordFormat) -> usize {
    miss(&Unit, f1, f2, &()).mass
}

/// The Mismatch Ratio `Mr(f1, f2) = diff(f2, f1) / W_f2`: the fraction of
/// the receiver format `f2` that has no source in `f1`.
pub fn mismatch_ratio(f1: &RecordFormat, f2: &RecordFormat) -> f64 {
    quality(&Unit, f1, f2).mismatch_ratio
}

/// The quality of a candidate `(f1, f2)` pair, in the mass `M` its weigher
/// sums to: field counts for the paper's matching, `f64` importance for the
/// weighted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality<M = usize> {
    /// `diff(f1, f2)`: incoming fields the receiver would drop.
    pub diff_fwd: M,
    /// `diff(f2, f1)`: receiver fields that would take defaults.
    pub diff_bwd: M,
    /// `Mr(f1, f2)`.
    pub mismatch_ratio: f64,
    /// No field is missing in either direction, whatever it weighs.
    perfect: bool,
}

impl MatchQuality {
    /// Computes the quality of converting `f1` into `f2`.
    pub fn of(f1: &RecordFormat, f2: &RecordFormat) -> MatchQuality {
        quality(&Unit, f1, f2)
    }
}

impl<M: PartialOrd> MatchQuality<M> {
    /// A perfect matching pair: `diff(f1,f2) = diff(f2,f1) = 0` field by
    /// field — under a profile that weighs some fields 0, more than both
    /// sums being 0.
    pub fn is_perfect(&self) -> bool {
        self.perfect
    }

    /// Whether this pair passes the thresholds.
    pub fn admissible(&self, config: &MatchConfig<M>) -> bool {
        self.diff_fwd <= config.diff_threshold && self.mismatch_ratio <= config.mismatch_threshold
    }

    /// The paper's preference order: least `Mr`, then least `diff(f1,f2)`.
    fn better_than(&self, other: &MatchQuality<M>) -> bool {
        (self.mismatch_ratio, &self.diff_fwd) < (other.mismatch_ratio, &other.diff_fwd)
    }
}

/// The quality of `(f1, f2)` under `w`. `Mr` is 0 when no mass of `f2` is
/// missing — an `f2` without weight included — and `f2` is weighed otherwise.
pub(crate) fn quality<W: Weigher>(
    w: &W,
    f1: &RecordFormat,
    f2: &RecordFormat,
) -> MatchQuality<W::Mass> {
    let root = W::Path::default();
    let (fwd, bwd) = (miss(w, f1, f2, &root), miss(w, f2, f1, &root));
    let whole = || W::as_f64(weight_under(w, f2, &root));
    let mismatch_ratio =
        if bwd.mass == W::Mass::default() { 0.0 } else { W::as_f64(bwd.mass) / whole() };
    let perfect = !(fwd.any || bwd.any);
    MatchQuality { diff_fwd: fwd.mass, diff_bwd: bwd.mass, mismatch_ratio, perfect }
}

/// The result of [`max_match`]: the chosen pair (by index into the two
/// candidate slices) and its quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxMatch<M = usize> {
    /// Index into the first candidate set.
    pub from: usize,
    /// Index into the second candidate set.
    pub to: usize,
    /// Quality of the chosen pair.
    pub quality: MatchQuality<M>,
}

/// `MaxMatch(F1, F2)` under `w`: the double loop and preference order every
/// matching policy shares.
pub(crate) fn select<W: Weigher>(
    w: &W,
    set1: &[Arc<RecordFormat>],
    set2: &[Arc<RecordFormat>],
    config: &MatchConfig<W::Mass>,
) -> Option<MaxMatch<W::Mass>> {
    let mut best: Option<MaxMatch<W::Mass>> = None;
    for (i, f1) in set1.iter().enumerate() {
        for (j, f2) in set2.iter().enumerate() {
            let q = quality(w, f1, f2);
            if q.admissible(config) && best.as_ref().is_none_or(|b| q.better_than(&b.quality)) {
                best = Some(MaxMatch { from: i, to: j, quality: q });
            }
        }
    }
    best
}

/// The paper's `MaxMatch(F1, F2)`: the admissible pair with the least
/// Mismatch Ratio, then the least `diff(f1, f2)`; ties broken by candidate
/// order (deterministically, where the paper says "arbitrarily").
///
/// Returns `None` when no pair passes the thresholds.
pub fn max_match(
    set1: &[Arc<RecordFormat>],
    set2: &[Arc<RecordFormat>],
    config: &MatchConfig,
) -> Option<MaxMatch> {
    select(&Unit, set1, set2, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::FormatBuilder;

    fn member(extra: bool) -> Arc<RecordFormat> {
        let b = FormatBuilder::record("Member").string("info").int("ID");
        let b = if extra { b.int("is_source").int("is_sink") } else { b };
        b.build_arc().unwrap()
    }

    fn v2() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(true), "member_count")
            .build_arc()
            .unwrap()
    }

    fn v1() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(false), "member_count")
            .int("src_count")
            .var_array_of("src_list", member(false), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member(false), "sink_count")
            .build_arc()
            .unwrap()
    }

    #[test]
    fn weight_counts_basic_fields_recursively() {
        let inner = member(false); // 2 basic fields
        let f = FormatBuilder::record("R")
            .int("count")
            .var_array_of("list", inner.clone(), "count")
            .nested("one", inner)
            .double("x")
            .build_arc()
            .unwrap();
        // count(1) + list elem weight(2) + one(2) + x(1)
        assert_eq!(type_weight(&FieldType::Record(f)), 6);
        // An array weighs as one element, however deeply nested.
        let grid = FieldType::Array {
            elem: Box::new(FieldType::Array {
                elem: Box::new(FieldType::Record(member(true))),
                len: pbio::ArrayLen::Fixed(2),
            }),
            len: pbio::ArrayLen::Fixed(3),
        };
        assert_eq!(type_weight(&grid), 4);
    }

    #[test]
    fn diff_of_identical_formats_is_zero() {
        assert_eq!(diff(&v1(), &v1()), 0);
        assert_eq!(diff(&v2(), &v2()), 0);
        assert!(MatchQuality::of(&v1(), &v1()).is_perfect());
    }

    #[test]
    fn diff_counts_basic_fields_both_ways() {
        let a = FormatBuilder::record("M").int("x").int("y").string("s").build().unwrap();
        let b = FormatBuilder::record("M").int("x").double("z").build().unwrap();
        assert_eq!(diff(&a, &b), 2); // y, s
        assert_eq!(diff(&b, &a), 1); // z
    }

    #[test]
    fn type_must_be_convertible_for_presence() {
        let a = FormatBuilder::record("M").string("x").build().unwrap();
        let b = FormatBuilder::record("M").int("x").build().unwrap();
        assert_eq!(diff(&a, &b), 1);
        let c = FormatBuilder::record("M").long("x").build().unwrap();
        assert_eq!(diff(&c, &b), 0); // widths convert
    }

    #[test]
    fn missing_complex_field_contributes_whole_weight() {
        let a = FormatBuilder::record("M")
            .int("n")
            .nested("inner", member(true)) // weight 4
            .build()
            .unwrap();
        let b = FormatBuilder::record("M").int("n").build().unwrap();
        assert_eq!(diff(&a, &b), 4);
    }

    #[test]
    fn complex_fields_recurse_by_name() {
        let a = FormatBuilder::record("M").nested("inner", member(true)).build().unwrap();
        let b = FormatBuilder::record("M").nested("inner", member(false)).build().unwrap();
        assert_eq!(diff(&a, &b), 2); // is_source, is_sink
        assert_eq!(diff(&b, &a), 0);
    }

    #[test]
    fn record_vs_array_same_name_is_whole_weight() {
        let a = FormatBuilder::record("M").nested("x", member(false)).build().unwrap();
        let b = FormatBuilder::record("M")
            .int("n")
            .var_array_of("x", member(false), "n")
            .build()
            .unwrap();
        assert_eq!(diff(&a, &b), 2); // record-vs-array: all of x's weight
    }

    #[test]
    fn an_array_of_another_length_discipline_is_absent() {
        use pbio::{BasicType, Width};
        let int = BasicType::Int(Width::W4);
        let vals = |n| FieldType::Array {
            elem: Box::new(FieldType::Record(member(true))),
            len: pbio::ArrayLen::Fixed(n),
        };
        let var = FormatBuilder::record("M")
            .int("n")
            .var_array_basic("vals", int.clone(), "n")
            .build_arc()
            .unwrap();
        let fixed4 = FormatBuilder::record("M")
            .int("n")
            .fixed_array("vals", FieldType::Basic(int), 4)
            .build_arc()
            .unwrap();
        // Absent both ways, with the field's weight.
        assert_eq!((diff(&var, &fixed4), diff(&fixed4, &var)), (1, 1));
        let recs4 = FormatBuilder::record("M").field("vals", vals(4)).build_arc().unwrap();
        let recs5 = FormatBuilder::record("M").field("vals", vals(5)).build_arc().unwrap();
        assert_eq!(diff(&recs4, &recs5), 4, "a member record weighs 4");
        assert_eq!(diff(&recs4, &recs4), 0);
        // Near under the default thresholds, no match at all under exact().
        let q = MatchQuality::of(&var, &fixed4);
        assert!(!q.is_perfect() && q.admissible(&MatchConfig::new()));
        let sets = (std::slice::from_ref(&var), std::slice::from_ref(&fixed4));
        assert!(max_match(sets.0, sets.1, &MatchConfig::new()).is_some());
        assert!(max_match(sets.0, sets.1, &MatchConfig::exact()).is_none());
    }

    #[test]
    fn paper_fig4_diffs() {
        // v2 member has two extra flags per element; v1 has two extra lists
        // plus counts.
        let d_21 = diff(&v2(), &v1()); // v2 fields missing from v1
        let d_12 = diff(&v1(), &v2()); // v1 fields missing from v2
        assert_eq!(d_21, 2); // is_source, is_sink
                             // src_count, sink_count, and the two lists (2 fields each).
        assert_eq!(d_12, 2 + 2 + 2);
        let mr = mismatch_ratio(&v2(), &v1());
        // W_v1 = member_count(1)+list(2)+src_count(1)+src(2)+sink_count(1)+sink(2) = 9
        assert!((mr - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_ratio_normalizes_by_target_weight() {
        // The paper's motivating example: two 1-field formats that don't
        // match at all, vs. big formats with 4 uncommon / 100 common fields.
        let small1 = FormatBuilder::record("S").int("only_a").build_arc().unwrap();
        let small2 = FormatBuilder::record("S").int("only_b").build_arc().unwrap();
        let mut big1 = FormatBuilder::record("B");
        let mut big2 = FormatBuilder::record("B");
        for i in 0..100 {
            big1 = big1.int(format!("common{i}"));
            big2 = big2.int(format!("common{i}"));
        }
        for i in 0..2 {
            big1 = big1.int(format!("only1_{i}"));
            big2 = big2.int(format!("only2_{i}"));
        }
        let big1 = big1.build_arc().unwrap();
        let big2 = big2.build_arc().unwrap();
        assert!(mismatch_ratio(&big1, &big2) < mismatch_ratio(&small1, &small2));
    }

    #[test]
    fn max_match_prefers_lower_mismatch_ratio() {
        let incoming = v2();
        let perfect = v2();
        let rollback = v1();
        let config = MatchConfig::new();
        let m = max_match(&[incoming], &[rollback, perfect], &config).unwrap();
        assert_eq!(m.to, 1, "perfect match must win");
        assert!(m.quality.is_perfect());
    }

    #[test]
    fn max_match_respects_thresholds() {
        let a = FormatBuilder::record("M").int("x").int("y").build_arc().unwrap();
        let b = FormatBuilder::record("M").int("z").build_arc().unwrap();
        assert!(max_match(
            std::slice::from_ref(&a),
            std::slice::from_ref(&b),
            &MatchConfig::exact()
        )
        .is_none());
        let loose = MatchConfig { diff_threshold: 10, mismatch_threshold: 1.0 };
        assert!(max_match(&[a], &[b], &loose).is_some());
    }

    #[test]
    fn exact_config_admits_only_perfect() {
        let cfg = MatchConfig::exact();
        let m = max_match(&[v2()], &[v2()], &cfg).unwrap();
        assert!(m.quality.is_perfect());
        assert!(max_match(&[v2()], &[v1()], &cfg).is_none());
    }

    #[test]
    fn tie_breaks_by_least_forward_diff() {
        // Two receiver formats with equal Mr but different diff(f1, f2).
        let incoming = FormatBuilder::record("M").int("a").int("b").int("c").build_arc().unwrap();
        // r1: drops one incoming field (diff_fwd 1), covers all of itself.
        let r1 = FormatBuilder::record("M").int("a").int("b").build_arc().unwrap();
        // r2: drops two incoming fields, covers all of itself (Mr 0 both).
        let r2 = FormatBuilder::record("M").int("a").build_arc().unwrap();
        let cfg = MatchConfig { diff_threshold: 10, mismatch_threshold: 1.0 };
        let m = max_match(&[incoming], &[r2, r1], &cfg).unwrap();
        assert_eq!(m.to, 1, "lower diff(f1,f2) wins on Mr tie");
    }

    #[test]
    fn empty_sets_yield_none() {
        assert!(max_match(&[], &[v1()], &MatchConfig::new()).is_none());
        assert!(max_match(&[v1()], &[], &MatchConfig::new()).is_none());
    }
}

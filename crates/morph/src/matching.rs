//! The paper's format-comparison machinery: `diff` (Algorithm 1), weights,
//! the Mismatch Ratio, and the `MaxMatch` selection rule (§3.2).

use std::sync::Arc;

use pbio::{BasicType, Field, FieldType, RecordFormat};

/// Thresholds controlling how much mismatch `MaxMatch` tolerates.
///
/// `DIFF_THRESHOLD` bounds `diff(f1, f2)` — basic fields of the incoming
/// format the receiver would drop; `MISMATCH_THRESHOLD` bounds the Mismatch
/// Ratio `Mr(f1, f2) = diff(f2, f1) / W_f2` — the fraction of the receiver
/// format that would be filled with defaults. Setting `diff_threshold` to 0
/// admits only formats whose every field the receiver understands (the
/// paper: "In order to allow just perfect matches, set DIFF_THRESHOLD to
/// zero").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Maximum tolerated `diff(f1, f2)` (absolute field count).
    pub diff_threshold: usize,
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

/// The paper's weight `W_f` of a field type: the number of basic-type
/// fields, counting recursively through complex fields.
pub fn type_weight(ty: &FieldType) -> usize {
    match ty {
        FieldType::Basic(_) => 1,
        FieldType::Record(r) => r.weight(),
        FieldType::Array { elem, .. } => type_weight(elem),
    }
}

/// True when a basic field of `f1` "is present in" `f2`: same name and a
/// convertible basic type (the paper borrows XML-style name-based matching,
/// §2).
fn basic_present(f: &Field, b: &BasicType, f2: &RecordFormat) -> bool {
    match f2.field(f.name()) {
        Some(g) => match g.ty() {
            FieldType::Basic(b2) => b.convertible_to(b2),
            _ => false,
        },
        None => false,
    }
}

/// Finds the complex field of `f2` with the same name and complex kind as
/// `f` (record↔record, array↔array).
fn complex_counterpart<'f>(f: &Field, f2: &'f RecordFormat) -> Option<&'f Field> {
    let g = f2.field(f.name())?;
    match (f.ty(), g.ty()) {
        (FieldType::Record(_), FieldType::Record(_)) => Some(g),
        (FieldType::Array { .. }, FieldType::Array { .. }) => Some(g),
        _ => None,
    }
}

/// Algorithm 1: the total number of basic-type fields present in `f1` but
/// not in `f2`, recursing through complex fields by name.
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
    let mut d12 = 0;
    for f in f1.fields() {
        match f.ty() {
            FieldType::Basic(b) => {
                if !basic_present(f, b, f2) {
                    d12 += 1;
                }
            }
            complex_ty => match complex_counterpart(f, f2) {
                None => d12 += type_weight(complex_ty),
                Some(g) => d12 += diff_types(complex_ty, g.ty()),
            },
        }
    }
    d12
}

/// `diff` lifted to field types (used when recursing into arrays, whose
/// element records are compared positionlessly by name).
fn diff_types(t1: &FieldType, t2: &FieldType) -> usize {
    match (t1, t2) {
        (FieldType::Record(r1), FieldType::Record(r2)) => diff(r1, r2),
        (FieldType::Array { elem: e1, .. }, FieldType::Array { elem: e2, .. }) => {
            diff_types(e1, e2)
        }
        (FieldType::Basic(b1), FieldType::Basic(b2)) => usize::from(!b1.convertible_to(b2)),
        (t1, _) => type_weight(t1),
    }
}

/// The Mismatch Ratio `Mr(f1, f2) = diff(f2, f1) / W_f2`: the fraction of
/// the receiver format `f2` that has no source in `f1`.
pub fn mismatch_ratio(f1: &RecordFormat, f2: &RecordFormat) -> f64 {
    let w2 = f2.weight();
    if w2 == 0 {
        return 0.0;
    }
    diff(f2, f1) as f64 / w2 as f64
}

/// The quality of a candidate `(f1, f2)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality {
    /// `diff(f1, f2)`: incoming fields the receiver would drop.
    pub diff_fwd: usize,
    /// `diff(f2, f1)`: receiver fields that would take defaults.
    pub diff_bwd: usize,
    /// `Mr(f1, f2)`.
    pub mismatch_ratio: f64,
}

impl MatchQuality {
    /// Computes the quality of converting `f1` into `f2`.
    pub fn of(f1: &RecordFormat, f2: &RecordFormat) -> MatchQuality {
        let diff_fwd = diff(f1, f2);
        let diff_bwd = diff(f2, f1);
        let w2 = f2.weight();
        let mismatch_ratio = if w2 == 0 { 0.0 } else { diff_bwd as f64 / w2 as f64 };
        MatchQuality { diff_fwd, diff_bwd, mismatch_ratio }
    }

    /// A perfect matching pair: `diff(f1,f2) = diff(f2,f1) = 0`.
    pub fn is_perfect(&self) -> bool {
        self.diff_fwd == 0 && self.diff_bwd == 0
    }

    /// Whether this pair passes the thresholds.
    pub fn admissible(&self, config: &MatchConfig) -> bool {
        self.diff_fwd <= config.diff_threshold && self.mismatch_ratio <= config.mismatch_threshold
    }

    /// The paper's preference order: least `Mr`, then least `diff(f1,f2)`.
    fn better_than(&self, other: &MatchQuality) -> bool {
        if self.mismatch_ratio != other.mismatch_ratio {
            return self.mismatch_ratio < other.mismatch_ratio;
        }
        self.diff_fwd < other.diff_fwd
    }
}

/// The result of [`max_match`]: the chosen pair (by index into the two
/// candidate slices) and its quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxMatch {
    /// Index into the first candidate set.
    pub from: usize,
    /// Index into the second candidate set.
    pub to: usize,
    /// Quality of the chosen pair.
    pub quality: MatchQuality,
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
    let mut best: Option<MaxMatch> = None;
    for (i, f1) in set1.iter().enumerate() {
        for (j, f2) in set2.iter().enumerate() {
            let q = MatchQuality::of(f1, f2);
            if !q.admissible(config) {
                continue;
            }
            let candidate = MaxMatch { from: i, to: j, quality: q };
            match &best {
                None => best = Some(candidate),
                Some(b) if q.better_than(&b.quality) => best = Some(candidate),
                Some(_) => {}
            }
        }
    }
    best
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

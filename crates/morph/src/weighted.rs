//! Importance-weighted format matching — the paper's stated future work:
//! *"more protocol evolution trials may show the utility of different
//! feature sets, such as the ability to weight different fields and
//! sub-fields based on some measure of 'importance'"* (§6).
//!
//! A [`WeightProfile`] assigns a non-negative importance to fields by
//! dotted path (`member_list.info`), with `*` matching any single segment.
//! Algorithm 1 then counts *importance mass* instead of fields — the same
//! traversal as [`crate::diff`], with a profile as its weigher — so
//! `wdiff(f1, f2)` is the total importance of basic fields of `f1` absent
//! from `f2`, and the weighted Mismatch Ratio normalizes by the target's
//! total importance. A receiver can thus accept a format missing ten debug
//! counters while rejecting one missing a single critical field.

use std::collections::HashMap;
use std::sync::Arc;

use pbio::RecordFormat;

use crate::matching::{miss, quality, select, MatchConfig, MaxMatch, Weigher};

/// Default importance of a field not mentioned in the profile.
const DEFAULT_IMPORTANCE: f64 = 1.0;

/// A set of importance weights keyed by dotted field path.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use morph::weighted::{wdiff, WeightProfile};
/// use pbio::FormatBuilder;
///
/// let full = FormatBuilder::record("M").int("price").int("debug_a").int("debug_b").build()?;
/// let lean = FormatBuilder::record("M").int("price").build()?;
/// let missing_price = FormatBuilder::record("M").int("debug_a").int("debug_b").build()?;
///
/// let profile = WeightProfile::new()
///     .weight("price", 10.0)
///     .weight("debug_*", 0.1);
///
/// // Dropping two debug counters costs 0.2; dropping price costs 10.
/// assert!(wdiff(&full, &lean, &profile) < wdiff(&full, &missing_price, &profile));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightProfile {
    /// Pattern → importance. Patterns are dotted paths; each segment is a
    /// literal name, `*` (any name), or a `prefix*` glob.
    weights: HashMap<String, f64>,
}

impl WeightProfile {
    /// An empty profile: every field weighs 1.0 (`DEFAULT_IMPORTANCE`), which
    /// makes the weighted functions compute the paper's unweighted ones.
    pub fn new() -> WeightProfile {
        WeightProfile { weights: HashMap::new() }
    }

    /// Sets the importance of fields matching `pattern` (builder style).
    /// Later calls override earlier ones for identical patterns; among
    /// different matching patterns, the most specific (fewest wildcards,
    /// then longest) wins.
    ///
    /// # Panics
    ///
    /// Panics if `importance` is negative or not finite.
    pub fn weight(mut self, pattern: impl Into<String>, importance: f64) -> WeightProfile {
        assert!(
            importance.is_finite() && importance >= 0.0,
            "importance must be a finite non-negative number"
        );
        self.weights.insert(pattern.into(), importance);
        self
    }

    /// The importance of the field at `path`.
    pub fn importance(&self, path: &str) -> f64 {
        let mut best: Option<(u32, usize, f64)> = None; // (specificity, len, w)
        for (pat, &w) in &self.weights {
            if pattern_matches(pat, path) {
                let wildcards = pat.split('.').filter(|s| s.contains('*')).count() as u32;
                let key = (u32::MAX - wildcards, pat.len(), w);
                match best {
                    None => best = Some(key),
                    Some((s, l, _)) if (key.0, key.1) > (s, l) => best = Some(key),
                    Some(_) => {}
                }
            }
        }
        best.map_or(DEFAULT_IMPORTANCE, |(_, _, w)| w)
    }
}

/// Matches a dotted pattern against a dotted path. Segments match
/// literally, as `*`, or as `prefix*`.
fn pattern_matches(pattern: &str, path: &str) -> bool {
    let pats: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = path.split('.').collect();
    if pats.len() != segs.len() {
        return false;
    }
    pats.iter().zip(&segs).all(|(p, s)| segment_matches(p, s))
}

fn segment_matches(pattern: &str, segment: &str) -> bool {
    if pattern == "*" {
        return true;
    }
    match pattern.strip_suffix('*') {
        Some(prefix) => segment.starts_with(prefix),
        None => pattern == segment,
    }
}

/// A profile weighs a basic field by its dotted path and sums in `f64`.
impl Weigher for WeightProfile {
    type Mass = f64;
    type Path = String;
    fn child(&self, parent: &String, name: &str) -> String {
        if parent.is_empty() {
            name.to_string()
        } else {
            format!("{parent}.{name}")
        }
    }
    fn basic(&self, at: &String) -> f64 {
        self.importance(at)
    }
    fn as_f64(mass: f64) -> f64 {
        mass
    }
}

/// Weighted Algorithm 1: total importance of basic fields of `f1` absent
/// from `f2`.
pub fn wdiff(f1: &RecordFormat, f2: &RecordFormat, profile: &WeightProfile) -> f64 {
    miss(profile, f1, f2, &String::new()).mass
}

/// Weighted Mismatch Ratio: importance of `f2` fields with no source in
/// `f1`, normalized by `f2`'s total importance.
pub fn wmismatch_ratio(f1: &RecordFormat, f2: &RecordFormat, profile: &WeightProfile) -> f64 {
    quality(profile, f1, f2).mismatch_ratio
}

/// Thresholds for weighted matching: `diff_threshold` bounds the importance
/// mass dropped (`wdiff(f1, f2)`) instead of a field count.
pub type WeightedConfig = MatchConfig<f64>;

impl From<MatchConfig> for WeightedConfig {
    fn from(c: MatchConfig) -> WeightedConfig {
        WeightedConfig {
            diff_threshold: c.diff_threshold as f64,
            mismatch_threshold: c.mismatch_threshold,
        }
    }
}

/// Weighted MaxMatch: least weighted `Mr`, then least weighted `diff`,
/// thresholded by `config`; ties broken by candidate order. The chosen
/// pair comes back with its weighted quality.
pub fn weighted_max_match(
    set1: &[Arc<RecordFormat>],
    set2: &[Arc<RecordFormat>],
    profile: &WeightProfile,
    config: &WeightedConfig,
) -> Option<MaxMatch<f64>> {
    select(profile, set1, set2, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{diff, mismatch_ratio};
    use pbio::FormatBuilder;

    fn fmt(fields: &[&str]) -> Arc<RecordFormat> {
        let mut b = FormatBuilder::record("M");
        for f in fields {
            b = b.int(*f);
        }
        b.build_arc().unwrap()
    }

    #[test]
    fn empty_profile_reduces_to_unweighted() {
        let a = fmt(&["x", "y", "z"]);
        let b = fmt(&["x", "q"]);
        let p = WeightProfile::new();
        assert_eq!(wdiff(&a, &b, &p), diff(&a, &b) as f64);
        assert_eq!(wdiff(&b, &a, &p), diff(&b, &a) as f64);
        assert!((wmismatch_ratio(&a, &b, &p) - mismatch_ratio(&a, &b)).abs() < 1e-12);
        let unweighted = crate::matching::type_weight(&pbio::FieldType::Record(a.clone()));
        let weighted = crate::matching::weight_under(&p, &a, &String::new());
        assert_eq!(weighted, unweighted as f64);
    }

    #[test]
    fn importance_resolution_prefers_specific_patterns() {
        let p = WeightProfile::new()
            .weight("*", 2.0)
            .weight("debug_*", 0.5)
            .weight("debug_critical", 7.0);
        assert_eq!(p.importance("price"), 2.0);
        assert_eq!(p.importance("debug_foo"), 0.5);
        assert_eq!(p.importance("debug_critical"), 7.0);
        assert_eq!(WeightProfile::new().importance("anything"), DEFAULT_IMPORTANCE);
    }

    #[test]
    fn nested_paths_match() {
        let member = FormatBuilder::record("E").string("info").int("flags").build_arc().unwrap();
        let full = FormatBuilder::record("M")
            .int("n")
            .var_array_of("list", member, "n")
            .build_arc()
            .unwrap();
        let lean_member = FormatBuilder::record("E").string("info").build_arc().unwrap();
        let lean = FormatBuilder::record("M")
            .int("n")
            .var_array_of("list", lean_member, "n")
            .build_arc()
            .unwrap();
        let p = WeightProfile::new().weight("list.flags", 0.25);
        assert_eq!(wdiff(&full, &lean, &p), 0.25);
        let p2 = WeightProfile::new().weight("list.*", 5.0);
        assert_eq!(wdiff(&full, &lean, &p2), 5.0);
    }

    #[test]
    fn weights_flip_the_match_decision() {
        // Incoming format; two readers, one missing two debug fields, one
        // missing the single critical field.
        let incoming = fmt(&["price", "qty", "debug_a", "debug_b"]);
        let lean_reader = fmt(&["price", "qty"]);
        let wrong_reader = fmt(&["qty", "debug_a", "debug_b"]);

        // Unweighted: wrong_reader drops only 1 incoming field (price),
        // lean_reader drops 2 (debug_a, debug_b); both cover themselves
        // fully (Mr = 0), so the tie-break on diff picks wrong_reader.
        let um = crate::matching::max_match(
            std::slice::from_ref(&incoming),
            &[lean_reader.clone(), wrong_reader.clone()],
            &MatchConfig { diff_threshold: 10, mismatch_threshold: 1.0 },
        )
        .unwrap();
        assert_eq!(um.to, 1, "unweighted matching is fooled by debug chaff");

        // Weighted: price matters, debug does not.
        let profile = WeightProfile::new().weight("price", 10.0).weight("debug_*", 0.01);
        let wm = weighted_max_match(
            std::slice::from_ref(&incoming),
            &[lean_reader, wrong_reader],
            &profile,
            &WeightedConfig { diff_threshold: 100.0, mismatch_threshold: 1.0 },
        )
        .unwrap();
        assert_eq!(wm.to, 0, "weighted matching keeps the critical field");
    }

    #[test]
    fn thresholds_bound_importance_mass() {
        let a = fmt(&["critical", "extra"]);
        let b = fmt(&["critical"]);
        let profile = WeightProfile::new().weight("extra", 5.0);
        let tight = WeightedConfig { diff_threshold: 1.0, mismatch_threshold: 1.0 };
        assert!(weighted_max_match(
            std::slice::from_ref(&a),
            std::slice::from_ref(&b),
            &profile,
            &tight
        )
        .is_none());
        let loose = WeightedConfig { diff_threshold: 5.0, mismatch_threshold: 1.0 };
        assert!(weighted_max_match(
            std::slice::from_ref(&a),
            std::slice::from_ref(&b),
            &profile,
            &loose
        )
        .is_some());
    }

    #[test]
    fn zero_weight_fields_are_free_to_drop() {
        let a = fmt(&["keep", "junk1", "junk2"]);
        let b = fmt(&["keep"]);
        let p = WeightProfile::new().weight("junk*", 0.0);
        assert_eq!(wdiff(&a, &b, &p), 0.0);
        assert_eq!(wmismatch_ratio(&a, &b, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "importance must be a finite non-negative number")]
    fn negative_importance_rejected() {
        let _ = WeightProfile::new().weight("x", -1.0);
    }

    #[test]
    fn config_conversion() {
        let c = WeightedConfig::from(MatchConfig { diff_threshold: 3, mismatch_threshold: 0.25 });
        assert_eq!(c.diff_threshold, 3.0);
        assert_eq!(c.mismatch_threshold, 0.25);
    }
}

//! Retro-transformations: the Ecode snippets writers associate with new
//! formats so receivers can roll messages back to older revisions
//! (paper Fig. 1), plus their compiled forms and the format-closure
//! computation used by Algorithm 2's `Ft` set.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ecode::{EcodeCompiler, EcodeProgram};
use pbio::{format_id, put_chunk, take_chunk, take_u32, FormatId, RecordFormat, Value};

use crate::error::{MorphError, Result};

/// The instruction budget of one run of wire-supplied transformation code
/// over a message of `bytes` bytes: a constant, growing with the message —
/// Fig. 5 spends about one instruction per byte it converts, a loop nested in
/// a loop over the same array a few hundred. Code that has not finished by
/// then (`while (1) {}`) fails with [`MorphError::Ecode`] and costs its
/// message, not the thread that ran it.
pub(crate) fn fuel_for(bytes: usize) -> u64 {
    const BASE: u64 = 1 << 20;
    const PER_BYTE: u64 = 1 << 8;
    BASE + PER_BYTE * bytes as u64
}

/// A writer-supplied transformation: Ecode source converting a message of
/// `from` into a message of `to`.
///
/// The source executes with two bound roots: read-only `new` (the incoming
/// message, format `from`) and writable `old` (the produced message, format
/// `to`) — exactly the convention of the paper's Fig. 5.
#[derive(Debug, Clone)]
pub struct Transformation {
    from: Arc<RecordFormat>,
    to: Arc<RecordFormat>,
    /// Shared, not copied: every receiver a transformation is imported
    /// into holds a reference to the one text.
    source: Arc<str>,
}

impl Transformation {
    /// Declares a transformation. The source is *not* compiled here —
    /// Algorithm 2 compiles on first need, at the receiver.
    pub fn new(
        from: Arc<RecordFormat>,
        to: Arc<RecordFormat>,
        source: impl Into<Arc<str>>,
    ) -> Transformation {
        Transformation { from, to, source: source.into() }
    }

    /// Source format (the newer revision).
    pub fn from_format(&self) -> &Arc<RecordFormat> {
        &self.from
    }

    /// Target format (the older revision).
    pub fn to_format(&self) -> &Arc<RecordFormat> {
        &self.to
    }

    /// Identity of the source format.
    pub fn from_id(&self) -> FormatId {
        format_id(&self.from)
    }

    /// Identity of the target format.
    pub fn to_id(&self) -> FormatId {
        format_id(&self.to)
    }

    /// The Ecode source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Serializes the transformation for out-of-band transfer: both
    /// endpoint format descriptions plus the Ecode source. This is the
    /// "additional meta-data associated with Protocol Y messages" of §3.1 —
    /// the receiver needs nothing else to morph.
    pub fn serialize(&self) -> Vec<u8> {
        let from = pbio::serialize_format(&self.from);
        let to = pbio::serialize_format(&self.to);
        let mut out = Vec::with_capacity(from.len() + to.len() + self.source.len() + 12);
        for part in [&from[..], &to[..], self.source.as_bytes()] {
            put_chunk(&mut out, part);
        }
        out
    }

    /// Reconstructs a transformation from [`Transformation::serialize`]d
    /// bytes. The source is *not* compiled here (and is therefore not
    /// trusted yet); compilation validates it against the formats.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Pbio`] / [`MorphError::BadTransformation`] for
    /// malformed input.
    pub fn deserialize(bytes: &[u8]) -> Result<Transformation> {
        let truncated =
            || MorphError::BadTransformation("truncated transformation meta-data".into());
        let mut pos = 0;
        let mut chunk = || take_chunk(bytes, &mut pos).ok_or_else(truncated);
        let from = pbio::deserialize_format(chunk()?)?;
        let to = pbio::deserialize_format(chunk()?)?;
        let source = std::str::from_utf8(chunk()?)
            .map_err(|_| MorphError::BadTransformation("source is not UTF-8".into()))?
            .into();
        if pos != bytes.len() {
            return Err(MorphError::BadTransformation(
                "trailing bytes after transformation meta-data".into(),
            ));
        }
        Ok(Transformation { from: Arc::new(from), to: Arc::new(to), source })
    }

    /// Compiles the transformation — the morphing layer's dynamic code
    /// generation step (Algorithm 2 line 22).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Ecode`] if the snippet fails to compile against
    /// the declared formats.
    pub fn compile(&self) -> Result<CompiledXform> {
        let program = EcodeCompiler::new()
            .bind_input("new", &self.from)
            .bind_output("old", &self.to)
            .compile(&self.source)?;
        Ok(CompiledXform { from: Arc::clone(&self.from), to: Arc::clone(&self.to), program })
    }
}

/// A compiled, cached transformation ready to execute per message.
#[derive(Debug, Clone)]
pub struct CompiledXform {
    from: Arc<RecordFormat>,
    to: Arc<RecordFormat>,
    program: EcodeProgram,
}

impl CompiledXform {
    /// Source format.
    pub fn from_format(&self) -> &Arc<RecordFormat> {
        &self.from
    }

    /// Target format.
    pub fn to_format(&self) -> &Arc<RecordFormat> {
        &self.to
    }

    /// The compiled Ecode program (two roots: read-only `new`, writable
    /// `old`). Exposed for chain fusion and bytecode inspection.
    pub fn program(&self) -> &EcodeProgram {
        &self.program
    }

    /// The one body under the three forms: `engine` runs the program over
    /// `[input, default old]` within the budget of a message the input's
    /// size ([`fuel_for`]), and `old` comes back with its variable-length
    /// array length fields re-synchronized, so the output always satisfies
    /// the target format's invariants. What the program returned is not
    /// read.
    fn run(
        &self,
        input: Value,
        engine: impl FnOnce(&EcodeProgram, &mut [Value], u64) -> ecode::Result<Option<Value>>,
    ) -> Result<Value> {
        let fuel = fuel_for(input.native_record_size(&self.from));
        let mut roots = vec![input, Value::default_record(&self.to)];
        engine(&self.program, &mut roots, fuel)?;
        let mut out = roots.pop().expect("two roots in, two out");
        pbio::sync_length_fields(&mut out, &self.to);
        Ok(out)
    }

    /// Applies the transformation to a decoded message value, producing a
    /// value in the target format (length fields re-synchronized after the
    /// user code runs).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Ecode`] if the transformation code fails at
    /// runtime, or has not finished within its instruction budget.
    pub fn apply(&self, input: &Value) -> Result<Value> {
        self.apply_owned(input.clone())
    }

    /// As [`CompiledXform::apply`], but takes the input by value to avoid a
    /// clone when the caller no longer needs it.
    ///
    /// # Errors
    ///
    /// See [`CompiledXform::apply`].
    fn apply_owned(&self, input: Value) -> Result<Value> {
        self.run(input, EcodeProgram::run_with_fuel)
    }

    /// Applies using the reference interpreter instead of the VM: the
    /// oracle the register VM's result is tested against.
    ///
    /// # Errors
    ///
    /// See [`CompiledXform::apply`].
    pub fn apply_interp(&self, input: &Value) -> Result<Value> {
        self.run(input.clone(), EcodeProgram::run_interp_with_fuel)
    }
}

/// Registry of transformations keyed by their source format, modelling the
/// transformation meta-data that travels out-of-band alongside format
/// descriptions.
#[derive(Debug, Clone, Default)]
pub struct TransformationRegistry {
    by_from: HashMap<FormatId, Vec<Transformation>>,
}

impl TransformationRegistry {
    /// Creates an empty registry.
    pub fn new() -> TransformationRegistry {
        TransformationRegistry { by_from: HashMap::new() }
    }

    /// Registers a transformation under its source format.
    pub fn register(&mut self, t: Transformation) {
        self.by_from.entry(t.from_id()).or_default().push(t);
    }

    /// Transformations whose source is `from`.
    pub fn outgoing(&self, from: FormatId) -> &[Transformation] {
        self.by_from.get(&from).map_or(&[], Vec::as_slice)
    }

    /// Total number of registered transformations.
    pub fn len(&self) -> usize {
        self.by_from.values().map(Vec::len).sum()
    }

    /// Iterates over every registered transformation (no defined order).
    pub fn iter(&self) -> impl Iterator<Item = &Transformation> {
        self.by_from.values().flatten()
    }

    /// True if no transformations are registered.
    pub fn is_empty(&self) -> bool {
        self.by_from.is_empty()
    }

    /// Serializes every transformation for out-of-band transfer.
    pub fn export(&self) -> Vec<u8> {
        let mut entries: Vec<&Transformation> = self.by_from.values().flatten().collect();
        entries.sort_by_key(|t| (t.from_id(), t.to_id(), t.source.len()));
        let mut out = Vec::new();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for t in entries {
            put_chunk(&mut out, &t.serialize());
        }
        out
    }

    /// Merges serialized transformations (from
    /// [`TransformationRegistry::export`]) into this registry.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::BadTransformation`] for malformed input; on
    /// error a prefix may already have been imported.
    pub fn import(&mut self, bytes: &[u8]) -> Result<usize> {
        let truncated = || MorphError::BadTransformation("truncated registry export".into());
        let mut pos = 0;
        let n = take_u32(bytes, &mut pos).ok_or_else(truncated)? as usize;
        for _ in 0..n {
            let meta = take_chunk(bytes, &mut pos).ok_or_else(truncated)?;
            self.register(Transformation::deserialize(meta)?);
        }
        Ok(n)
    }

    /// Computes Algorithm 2's `Ft`: every format reachable from `start` via
    /// registered transformations (including `start` itself, reached by the
    /// empty chain). Returns, per reachable format, the *shortest* chain of
    /// transformations producing it, in application order.
    pub fn closure(&self, start: &Arc<RecordFormat>) -> Vec<ReachableFormat> {
        let start_id = format_id(start);
        let mut seen: HashMap<FormatId, usize> = HashMap::new();
        let mut out = vec![ReachableFormat { format: Arc::clone(start), chain: Vec::new() }];
        seen.insert(start_id, 0);
        let mut queue = VecDeque::new();
        queue.push_back(0usize);
        while let Some(idx) = queue.pop_front() {
            let (from_id, chain_len) = {
                let r = &out[idx];
                (format_id(&r.format), r.chain.len())
            };
            for t in self.outgoing(from_id) {
                let to_id = t.to_id();
                if seen.contains_key(&to_id) {
                    continue;
                }
                let mut chain = out[idx].chain.clone();
                chain.push(t.clone());
                debug_assert_eq!(chain.len(), chain_len + 1);
                seen.insert(to_id, out.len());
                out.push(ReachableFormat { format: Arc::clone(t.to_format()), chain });
                queue.push_back(out.len() - 1);
            }
        }
        out
    }
}

/// A format reachable from an incoming format, with the transformation
/// chain that produces it (empty for the incoming format itself).
#[derive(Debug, Clone)]
pub struct ReachableFormat {
    /// The reachable format.
    pub format: Arc<RecordFormat>,
    /// Transformations to apply, in order.
    pub chain: Vec<Transformation>,
}

/// A compiled chain of transformations (possibly empty).
#[derive(Debug, Clone, Default)]
pub struct CompiledChain {
    steps: Vec<CompiledXform>,
}

impl CompiledChain {
    /// Compiles every step of a chain.
    ///
    /// # Errors
    ///
    /// Returns the first compile error.
    pub fn compile(chain: &[Transformation]) -> Result<CompiledChain> {
        let mut steps = Vec::with_capacity(chain.len());
        for t in chain {
            steps.push(t.compile()?);
        }
        // Validate that the chain composes.
        for pair in steps.windows(2) {
            if format_id(pair[0].to_format()) != format_id(pair[1].from_format()) {
                return Err(MorphError::BadTransformation(
                    "chain steps do not compose (target/source formats differ)".into(),
                ));
            }
        }
        Ok(CompiledChain { steps })
    }

    /// The individual compiled steps.
    pub fn steps(&self) -> &[CompiledXform] {
        &self.steps
    }

    /// Fuses the whole chain into a single VM program (one invocation per
    /// message instead of one per step — see [`ecode::FusedProgram`]).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Ecode`] when the chain is empty, does not
    /// compose, or has 255 steps or more.
    pub fn fuse(&self) -> Result<ecode::FusedProgram> {
        let steps: Vec<&EcodeProgram> = self.steps.iter().map(|s| &s.program).collect();
        Ok(ecode::FusedProgram::compose(&steps)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::FormatBuilder;

    fn fmt(name: &str, fields: &[&str]) -> Arc<RecordFormat> {
        let mut b = FormatBuilder::record(name);
        for f in fields {
            b = b.int(*f);
        }
        b.build_arc().unwrap()
    }

    #[test]
    fn compile_and_apply_simple_xform() {
        let from = fmt("M", &["a", "b"]);
        let to = fmt("M", &["sum"]);
        let t = Transformation::new(from, to, "old.sum = new.a + new.b;");
        let cx = t.compile().unwrap();
        let out = cx.apply(&Value::Record(vec![Value::Int(2), Value::Int(3)])).unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(5)]));
        let out2 = cx.apply_interp(&Value::Record(vec![Value::Int(2), Value::Int(3)])).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn compile_error_surfaces() {
        let from = fmt("M", &["a"]);
        let to = fmt("M", &["b"]);
        let t = Transformation::new(from, to, "old.nosuch = 1;");
        assert!(matches!(t.compile(), Err(MorphError::Ecode(_))));
    }

    #[test]
    fn closure_walks_revision_chain() {
        // Rev 2.0 → Rev 1.0 → Rev 0.0, as in the paper's Fig. 1.
        let r2 = fmt("M", &["a", "b", "c"]);
        let r1 = fmt("M", &["a", "b"]);
        let r0 = fmt("M", &["a"]);
        let mut reg = TransformationRegistry::new();
        reg.register(Transformation::new(r2.clone(), r1.clone(), "old.a = new.a; old.b = new.b;"));
        reg.register(Transformation::new(r1.clone(), r0.clone(), "old.a = new.a;"));
        let reach = reg.closure(&r2);
        assert_eq!(reach.len(), 3);
        assert_eq!(reach[0].chain.len(), 0);
        assert_eq!(format_id(&reach[1].format), format_id(&r1));
        assert_eq!(reach[1].chain.len(), 1);
        assert_eq!(format_id(&reach[2].format), format_id(&r0));
        assert_eq!(reach[2].chain.len(), 2);
    }

    #[test]
    fn closure_handles_cycles_and_shortest_paths() {
        let a = fmt("M", &["a"]);
        let b = fmt("M", &["b"]);
        let mut reg = TransformationRegistry::new();
        reg.register(Transformation::new(a.clone(), b.clone(), "old.b = new.a;"));
        reg.register(Transformation::new(b.clone(), a.clone(), "old.a = new.b;"));
        // Also a direct self-loop-ish alternative path a → b (duplicate).
        reg.register(Transformation::new(a.clone(), b.clone(), "old.b = new.a + 0;"));
        let reach = reg.closure(&a);
        assert_eq!(reach.len(), 2, "cycle must not loop forever");
        assert_eq!(reach[1].chain.len(), 1, "shortest chain wins");
    }

    #[test]
    fn chain_apply_composes() {
        let r2 = fmt("M", &["a", "b", "c"]);
        let r1 = fmt("M", &["a", "b"]);
        let r0 = fmt("M", &["a"]);
        let chain = vec![
            Transformation::new(r2, r1.clone(), "old.a = new.a + 1; old.b = new.b;"),
            Transformation::new(r1, r0, "old.a = new.a * 10;"),
        ];
        let cc = CompiledChain::compile(&chain).unwrap();
        assert_eq!(cc.steps().len(), 2);
        let input = Value::Record(vec![Value::Int(4), Value::Int(0), Value::Int(0)]);
        let out = cc.steps().iter().fold(input, |v, step| step.apply_owned(v).unwrap());
        assert_eq!(out, Value::Record(vec![Value::Int(50)]));
    }

    #[test]
    fn fused_chain_matches_tree_walker_fold() {
        let r2 = fmt("M", &["a", "b", "c"]);
        let r1 = fmt("M", &["a", "b"]);
        let r0 = fmt("M", &["a"]);
        let chain = vec![
            Transformation::new(r2, r1.clone(), "old.a = new.a + 1; old.b = new.b;"),
            Transformation::new(r1, r0.clone(), "old.a = new.a * 10;"),
        ];
        let cc = CompiledChain::compile(&chain).unwrap();
        let fp = cc.fuse().unwrap();
        assert_eq!(fp.n_roots(), 3);
        let input = Value::Record(vec![Value::Int(4), Value::Int(0), Value::Int(0)]);
        let mut roots = vec![input.clone()];
        for step in cc.steps() {
            roots.push(Value::default_record(step.to_format()));
        }
        fp.run_register(&mut roots).unwrap();
        // The oracle: the tree-walker, step by step.
        let oracle = cc.steps().iter().fold(input, |v, step| step.apply_interp(&v).unwrap());
        assert_eq!(roots.pop().unwrap(), oracle);
        assert_eq!(oracle, Value::Record(vec![Value::Int(50)]));
        // Empty chains have nothing to fuse.
        assert!(CompiledChain::default().fuse().is_err());
    }

    /// Wire-supplied code runs on a budget: a loop that never ends is an
    /// error under every form, the oracle's included.
    #[test]
    fn a_transformation_that_never_finishes_spends_its_budget_and_errs() {
        let t = Transformation::new(fmt("M", &["a"]), fmt("M", &["b"]), "while (1) {}");
        let cx = t.compile().unwrap();
        let input = Value::Record(vec![Value::Int(1)]);
        for result in [cx.apply(&input), cx.apply_owned(input.clone()), cx.apply_interp(&input)] {
            let err = result.unwrap_err();
            assert!(matches!(err, MorphError::Ecode(_)), "{err}");
            assert!(err.to_string().contains("budget exhausted"), "{err}");
        }
        // The budget grows with the message.
        assert!(fuel_for(64 << 10) > fuel_for(0) && fuel_for(0) >= 1 << 20);
    }

    /// The budget bounds what wire-supplied code allocates, not only how
    /// long it runs: under the budget of a 64-byte message, a string
    /// doubled without end and a write ten million elements out fail on
    /// both engines, having built no string longer than the budget and not
    /// one element of the array.
    #[test]
    fn a_transformation_that_allocates_without_bound_spends_its_budget_and_errs() {
        let from = FormatBuilder::record("M").string("s").build_arc().unwrap();
        let to = FormatBuilder::record("M")
            .string("s")
            .int("n")
            .var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
            .build_arc()
            .unwrap();
        let fuel = fuel_for(64);
        let programs = [
            ("doubling", "string t = new.s; while (1) { t = t + t; old.s = t; }"),
            ("far write", "old.vals[10000000] = 1;"),
        ];
        for (what, src) in programs {
            let cx = Transformation::new(from.clone(), to.clone(), src).compile().unwrap();
            let runs = [EcodeProgram::run_with_fuel, EcodeProgram::run_interp_with_fuel];
            for (engine, run) in ["vm", "interp"].into_iter().zip(runs) {
                let mut roots =
                    vec![Value::Record(vec![Value::str("xy")]), Value::default_record(&to)];
                let err = run(cx.program(), &mut roots, fuel).unwrap_err();
                assert!(err.to_string().contains("budget exhausted"), "{what}, {engine}: {err}");
                let out = roots[1].as_record().unwrap();
                let (built, elems) =
                    (out[0].as_str().unwrap().len(), out[2].as_array().unwrap().len());
                assert!(built as u64 <= fuel && elems == 0, "{what}, {engine}: {built}, {elems}");
            }
        }
    }

    #[test]
    fn non_composing_chain_rejected() {
        let a = fmt("M", &["a"]);
        let b = fmt("M", &["b"]);
        let c = fmt("M", &["c"]);
        let chain = vec![
            Transformation::new(a.clone(), b, "old.b = new.a;"),
            Transformation::new(a, c, "old.c = new.a;"),
        ];
        assert!(matches!(CompiledChain::compile(&chain), Err(MorphError::BadTransformation(_))));
    }

    #[test]
    fn transformation_serialization_roundtrip() {
        let t = Transformation::new(
            fmt("M", &["a", "b"]),
            fmt("M", &["sum"]),
            "old.sum = new.a + new.b;",
        );
        let bytes = t.serialize();
        let back = Transformation::deserialize(&bytes).unwrap();
        assert_eq!(back.from_id(), t.from_id());
        assert_eq!(back.to_id(), t.to_id());
        assert_eq!(back.source(), t.source());
        // The deserialized transformation compiles and behaves identically.
        let out = back
            .compile()
            .unwrap()
            .apply(&Value::Record(vec![Value::Int(4), Value::Int(5)]))
            .unwrap();
        assert_eq!(out, Value::Record(vec![Value::Int(9)]));
    }

    #[test]
    fn transformation_deserialize_rejects_garbage() {
        assert!(Transformation::deserialize(&[]).is_err());
        assert!(Transformation::deserialize(&[1, 2, 3]).is_err());
        let t = Transformation::new(fmt("M", &["a"]), fmt("M", &["b"]), "old.b = new.a;");
        let mut bytes = t.serialize();
        bytes.truncate(bytes.len() - 2);
        assert!(Transformation::deserialize(&bytes).is_err());
        let mut bytes = t.serialize();
        bytes.push(0);
        assert!(Transformation::deserialize(&bytes).is_err());
    }

    #[test]
    fn registry_export_import_roundtrip() {
        let mut reg = TransformationRegistry::new();
        reg.register(Transformation::new(
            fmt("M", &["a", "b"]),
            fmt("M", &["a"]),
            "old.a = new.a;",
        ));
        reg.register(Transformation::new(fmt("M", &["a"]), fmt("N", &["x"]), "old.x = new.a;"));
        let mut other = TransformationRegistry::new();
        assert_eq!(other.import(&reg.export()).unwrap(), 2);
        assert_eq!(other.len(), 2);
        // Closures computed from the imported registry match the original.
        let start = fmt("M", &["a", "b"]);
        assert_eq!(other.closure(&start).len(), reg.closure(&start).len());
        // Garbage rejected.
        assert!(TransformationRegistry::new().import(&[0, 1]).is_err());
    }

    #[test]
    fn apply_repairs_length_fields() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let from = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member.clone(), "n")
            .build_arc()
            .unwrap();
        let to = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member, "n")
            .build_arc()
            .unwrap();
        // Deliberately forget to set old.n; sync must repair it.
        let t = Transformation::new(
            from,
            to.clone(),
            "int i; for (i = 0; i < new.n; i++) { old.items[i].ID = new.items[i].ID; }",
        );
        let cx = t.compile().unwrap();
        let input = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::Int(7)]),
                Value::Record(vec![Value::Int(8)]),
            ]),
        ]);
        let out = cx.apply(&input).unwrap();
        assert_eq!(out.field(&to, "n"), Some(&Value::Int(2)));
        out.check(&to).unwrap();
    }
}

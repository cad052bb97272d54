//! Retro-transformations: the Ecode snippets writers associate with new
//! formats so receivers can roll messages back to older revisions
//! (paper Fig. 1), plus their compiled forms and the format-closure
//! computation used by Algorithm 2's `Ft` set.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ecode::{EcodeCompiler, EcodeProgram};
use pbio::{format_id, put_chunk, take_chunk, FormatId, FormatRegistry, RecordFormat, Value};

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

    /// Applies the transformation to a decoded message value on the
    /// reference interpreter — the oracle the register VM's deliveries are
    /// tested against — within the instruction budget a receiver gives a
    /// message the input's size. The output's variable-length array length
    /// fields are re-synchronized after the code runs, so it always
    /// satisfies the target format's invariants. What the program returned
    /// is not read.
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::Ecode`] if the transformation code fails at
    /// runtime, or has not finished within its instruction budget.
    pub fn apply_interp(&self, input: &Value) -> Result<Value> {
        let fuel = fuel_for(input.native_record_size(&self.from));
        let mut roots = vec![input.clone(), Value::default_record(&self.to)];
        self.program.run_interp_with_fuel(&mut roots, fuel)?;
        let mut out = roots.pop().expect("two roots in, two out");
        pbio::sync_length_fields(&mut out, &self.to);
        Ok(out)
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

    /// Registers a transformation under its source format. Returns false,
    /// registering nothing, when the registry already holds it (same
    /// source and target format, same source text): it is a set.
    pub fn register(&mut self, t: Transformation) -> bool {
        if self.contains(&t) {
            return false;
        }
        self.by_from.entry(t.from_id()).or_default().push(t);
        true
    }

    /// True when the registry holds `t`: same source and target format,
    /// same source text.
    pub fn contains(&self, t: &Transformation) -> bool {
        self.outgoing(t.from_id())
            .iter()
            .any(|h| h.to_id() == t.to_id() && h.source() == t.source())
    }

    /// Transformations whose source is `from`.
    pub fn outgoing(&self, from: FormatId) -> &[Transformation] {
        self.by_from.get(&from).map_or(&[], Vec::as_slice)
    }

    /// Iterates over every registered transformation (no defined order).
    pub fn iter(&self) -> impl Iterator<Item = &Transformation> {
        self.by_from.values().flatten()
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

/// The out-of-band meta-data a receiver knows: wire formats, and
/// retro-transformations with both of their endpoint formats. Receivers
/// seeded from the same set hold one catalog behind an `Arc`
/// ([`MorphReceiver::import_catalog`](crate::MorphReceiver::import_catalog));
/// a receiver that learns something new alone copies it then.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    formats: FormatRegistry,
    xforms: TransformationRegistry,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Learns a wire format (idempotent), returning its identity.
    pub fn import_format(&mut self, format: Arc<RecordFormat>) -> FormatId {
        self.formats.register(format)
    }

    /// Learns a transformation and both of its endpoint formats. Returns
    /// false when the catalog already held the transformation.
    pub fn import_transformation(&mut self, t: Transformation) -> bool {
        self.formats.register(Arc::clone(t.from_format()));
        self.formats.register(Arc::clone(t.to_format()));
        self.xforms.register(t)
    }

    /// The wire formats learned, endpoint formats of transformations
    /// included.
    pub fn formats(&self) -> &FormatRegistry {
        &self.formats
    }

    /// The transformations learned.
    pub fn transformations(&self) -> &TransformationRegistry {
        &self.xforms
    }

    /// Learns everything `other` holds into `this`. When `this` held
    /// nothing `other` lacks, `this` becomes `other`, shared and not
    /// copied; otherwise `this` is copied, if it is shared, and extended.
    pub fn import_all(this: &mut Arc<Catalog>, other: &Arc<Catalog>) {
        let within = this.formats.iter().all(|f| other.formats.contains(format_id(f)))
            && this.xforms.iter().all(|t| other.xforms.contains(t));
        if within {
            *this = Arc::clone(other);
            return;
        }
        let own = Arc::make_mut(this);
        for f in other.formats.iter() {
            own.import_format(Arc::clone(f));
        }
        for t in other.xforms.iter() {
            own.import_transformation(t.clone());
        }
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

    /// `fused` on the register VM as a receiver runs it: `input` encoded
    /// under root 0's format, indexed with the identity plan and read in
    /// place; `outputs` are written.
    fn run_vm(
        fused: &ecode::FusedProgram,
        input: &Value,
        outputs: &mut [Value],
        fuel: u64,
    ) -> ecode::Result<()> {
        let from = &fused.bindings()[0].format;
        let wire = pbio::Encoder::new(from).encode(input).unwrap();
        let plan = pbio::ConversionPlan::identity(from).unwrap();
        let mut tape = pbio::Tape::default();
        let view = plan.index(&wire, &mut tape).unwrap();
        let scratch = &mut ecode::VmScratch::default();
        fused.run_view(&view, &fused.routes(&plan), outputs, fuel, scratch)
    }

    /// [`CompiledXform::apply_interp`]'s register-VM twin: `cx` fused alone,
    /// run by [`run_vm`] under the same budget.
    fn apply_vm(cx: &CompiledXform, input: &Value) -> Result<Value> {
        let fused = ecode::FusedProgram::compose(&[cx.program()])?;
        let mut out = [Value::default_record(cx.to_format())];
        run_vm(&fused, input, &mut out, fuel_for(input.native_record_size(cx.from_format())))?;
        let [out] = out;
        Ok(out)
    }

    #[test]
    fn compile_and_apply_simple_xform() {
        let from = fmt("M", &["a", "b"]);
        let to = fmt("M", &["sum"]);
        let t = Transformation::new(from, to, "old.sum = new.a + new.b;");
        let cx = t.compile().unwrap();
        let out = apply_vm(&cx, &Value::Record(vec![Value::Int(2), Value::Int(3)])).unwrap();
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
    fn registering_a_held_transformation_again_changes_nothing() {
        let a = fmt("M", &["a"]);
        let b = fmt("M", &["b"]);
        let mut reg = TransformationRegistry::new();
        assert!(reg.register(Transformation::new(a.clone(), b.clone(), "old.b = new.a;")));
        assert!(!reg.register(Transformation::new(a.clone(), b.clone(), "old.b = new.a;")));
        assert_eq!(reg.iter().count(), 1);
        // Another text, or another target, is another transformation.
        assert!(reg.register(Transformation::new(a.clone(), b.clone(), "old.b = new.a + 1;")));
        assert!(reg.register(Transformation::new(a.clone(), a.clone(), "old.a = new.a;")));
        assert_eq!(reg.outgoing(format_id(&a)).len(), 3);
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
        let out = cc.steps().iter().fold(input, |v, step| apply_vm(step, &v).unwrap());
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
        let mut roots: Vec<Value> =
            cc.steps().iter().map(|step| Value::default_record(step.to_format())).collect();
        run_vm(&fp, &input, &mut roots, u64::MAX).unwrap();
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
        for result in [apply_vm(&cx, &input), cx.apply_interp(&input)] {
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
            for (engine, (err, out)) in ["vm", "interp"].into_iter().zip(on_both(&cx, fuel)) {
                assert!(err.contains("budget exhausted"), "{what}, {engine}: {err}");
                let out = out.as_record().unwrap();
                let (built, elems) =
                    (out[0].as_str().unwrap().len(), out[2].as_array().unwrap().len());
                assert!(built as u64 <= fuel && elems == 0, "{what}, {engine}: {built}, {elems}");
            }
        }
    }

    /// `cx` run from the input `{ s: "xy" }` under `fuel` on the register VM
    /// and on the tree-walker, each expected to fail: the error's text and
    /// the output root it left, per engine.
    fn on_both(cx: &CompiledXform, fuel: u64) -> [(String, Value); 2] {
        let input = Value::Record(vec![Value::str("xy")]);
        let fused = ecode::FusedProgram::compose(&[cx.program()]).unwrap();
        let mut out = [Value::default_record(cx.to_format())];
        let vm = run_vm(&fused, &input, &mut out, fuel).unwrap_err().to_string();
        let [by_vm] = out;
        let mut roots = [input, Value::default_record(cx.to_format())];
        let interp = cx.program().run_interp_with_fuel(&mut roots, fuel).unwrap_err().to_string();
        let [_, by_interp] = roots;
        [(vm, by_vm), (interp, by_interp)]
    }

    /// The bytes of every string in `v`.
    fn text_bytes(v: &Value) -> u64 {
        match v {
            Value::Str(s) => s.len() as u64,
            Value::Record(vs) | Value::Array(vs) => vs.iter().map(text_bytes).sum(),
            _ => 0,
        }
    }

    /// Copying a string costs one unit per byte copied, on both engines:
    /// under the budget of a 64-byte message, a 64-byte string stored into
    /// array element after array element runs out having left at most the
    /// budget's worth of bytes in the output — where one unit per copy would
    /// let it hold about 64 bytes per few units. The paper's Fig. 5 morph of
    /// a message the size of the benchmark's (400 members) needs a small
    /// part of its own message's budget.
    #[test]
    fn string_copies_are_paid_per_byte_and_fig5_stays_well_within_its_budget() {
        let from = FormatBuilder::record("M").string("s").build_arc().unwrap();
        let item = FormatBuilder::record("I").string("s").build_arc().unwrap();
        let to = FormatBuilder::record("M")
            .int("n")
            .var_array_of("list", item, "n")
            .build_arc()
            .unwrap();
        let src = "string t = new.s; int i; for (i = 0; i < 5; i++) t = t + t; \
                   for (i = 0; ; i++) old.list[i].s = t;";
        let cx = Transformation::new(from, to, src).compile().unwrap();
        let fuel = fuel_for(64);
        for (engine, (err, out)) in ["vm", "interp"].into_iter().zip(on_both(&cx, fuel)) {
            assert!(err.contains("budget exhausted"), "{engine}: {err}");
            let held = text_bytes(&out);
            assert!(held <= fuel, "{engine}: {held} bytes held on a budget of {fuel}");
            assert!(held > fuel / 4, "{engine}: the loop stopped early, at {held} bytes");
        }

        let member = || FormatBuilder::record("Member").string("info").int("ID");
        let v2_member = member().int("is_source").int("is_sink").build_arc().unwrap();
        let v1_member = member().build_arc().unwrap();
        let list = |b: FormatBuilder, name: &str, elem: &Arc<RecordFormat>| {
            b.int(format!("{name}_count")).var_array_of(
                name,
                Arc::clone(elem),
                format!("{name}_count"),
            )
        };
        let v2 = list(FormatBuilder::record("R"), "member", &v2_member).build_arc().unwrap();
        let v1 = list(FormatBuilder::record("R"), "member", &v1_member);
        let v1 = list(list(v1, "src", &v1_member), "sink", &v1_member).build_arc().unwrap();
        let fig5 = "int i; int sinks = 0; int srcs = 0; \
            old.member_count = new.member_count; \
            for (i = 0; i < new.member_count; i++) { \
                old.member[i].info = new.member[i].info; old.member[i].ID = new.member[i].ID; \
                if (new.member[i].is_source) { \
                    old.src[srcs].info = new.member[i].info; old.src[srcs].ID = new.member[i].ID; \
                    srcs++; } \
                if (new.member[i].is_sink) { \
                    old.sink[sinks].info = new.member[i].info; old.sink[sinks].ID = new.member[i].ID; \
                    sinks++; } } \
            old.src_count = srcs; old.sink_count = sinks;";
        let cx = Transformation::new(Arc::clone(&v2), v1, fig5).compile().unwrap();
        let members = (0..400).map(|i| {
            let info = Value::str(format!("host{:03}:7{:03}", i % 997, i));
            Value::Record(vec![info, Value::Int(i), Value::Int(1), Value::Int(1)])
        });
        let input = Value::Record(vec![Value::Int(400), Value::Array(members.collect())]);
        let budget = fuel_for(pbio::Encoder::new(&v2).encode(&input).unwrap().len());
        let fused = ecode::FusedProgram::compose(&[cx.program()]).unwrap();
        let needs = |fuel| {
            let mut out = [Value::default_record(cx.to_format())];
            run_vm(&fused, &input, &mut out, fuel).is_ok()
        };
        let (mut lo, mut hi) = (0, budget);
        assert!(needs(hi));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if needs(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        assert!(lo * 10 < budget, "Fig. 5 needs {lo} of its budget of {budget}");
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
        let out =
            apply_vm(&back.compile().unwrap(), &Value::Record(vec![Value::Int(4), Value::Int(5)]))
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
        let out = apply_vm(&cx, &input).unwrap();
        assert_eq!(out.field(&to, "n"), Some(&Value::Int(2)));
        assert_eq!(cx.apply_interp(&input).unwrap(), out);
        out.check(&to).unwrap();
    }
}

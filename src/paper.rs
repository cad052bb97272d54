//! The paper's §5 workload: `ChannelOpenResponse` messages sized to the
//! evaluation's sweep points, the Fig. 5 rollback in Ecode and as its XSLT
//! twin, and the five size columns of Table 1.
//!
//! The paper varies the size of the v2.0 `member_list` so that the
//! *unencoded native* message size hits 100 B, 1 KB, 10 KB, 100 KB, 1 MB
//! (and up to 10 MB in Table 1). Member contact strings are realistic
//! `host:port` strings, and sizes are tuned by member count.
//!
//! `tests/paper.rs` asserts the exact figures (Table 1, link latency);
//! `examples/paper_figures.rs` times Figs. 8–10 over [`SWEEP`].

use std::sync::Arc;

use morph::{MorphReceiver, Transformation};
use pbio::{Encoder, FormatBuilder, RecordFormat, Value};

/// The v1.0 member entry (info + ID).
fn member_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("Member").string("info").int("ID").build_arc().expect("static format")
}

/// The v2.0 member entry (info + ID + role flags). The flags are C
/// booleans (`char`), as the paper's Fig. 4b comments them.
fn member_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("Member")
        .string("info")
        .int("ID")
        .char("is_source")
        .char("is_sink")
        .build_arc()
        .expect("static format")
}

/// `ChannelOpenResponse` v1.0 (paper Fig. 4a).
pub fn response_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member_v1(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member_v1(), "src_count")
        .int("sink_count")
        .var_array_of("sink_list", member_v1(), "sink_count")
        .build_arc()
        .expect("static format")
}

/// `ChannelOpenResponse` v2.0 (paper Fig. 4b).
pub fn response_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member_v2(), "member_count")
        .build_arc()
        .expect("static format")
}

/// The paper's Fig. 5 transformation (v2.0 → v1.0 rollback).
const FIG5: &str = r#"
    int i;
    int sink_count = 0;
    int src_count = 0;
    old.member_count = new.member_count;
    for (i = 0; i < new.member_count; i++) {
        old.member_list[i].info = new.member_list[i].info;
        old.member_list[i].ID = new.member_list[i].ID;
        if (new.member_list[i].is_source) {
            old.src_list[src_count].info = new.member_list[i].info;
            old.src_list[src_count].ID = new.member_list[i].ID;
            src_count++;
        }
        if (new.member_list[i].is_sink) {
            old.sink_list[sink_count].info = new.member_list[i].info;
            old.sink_list[sink_count].ID = new.member_list[i].ID;
            sink_count++;
        }
    }
    old.src_count = src_count;
    old.sink_count = sink_count;
"#;

/// The Fig. 5 transformation as out-of-band meta-data.
pub fn fig5_transformation() -> Transformation {
    Transformation::new(response_v2(), response_v1(), FIG5)
}

/// The v2→v1 rollback as an XSLT stylesheet (the libxslt-side equivalent).
pub const FIG5_XSL: &str = r#"
  <xsl:stylesheet>
    <xsl:template match="/ChannelOpenResponse">
      <ChannelOpenResponse>
        <member_count><xsl:value-of select="member_count"/></member_count>
        <xsl:for-each select="member_list">
          <member_list>
            <info><xsl:value-of select="info"/></info>
            <ID><xsl:value-of select="ID"/></ID>
          </member_list>
        </xsl:for-each>
        <src_count><xsl:value-of select="count(member_list[is_source=1])"/></src_count>
        <xsl:for-each select="member_list[is_source=1]">
          <src_list>
            <info><xsl:value-of select="info"/></info>
            <ID><xsl:value-of select="ID"/></ID>
          </src_list>
        </xsl:for-each>
        <sink_count><xsl:value-of select="count(member_list[is_sink=1])"/></sink_count>
        <xsl:for-each select="member_list[is_sink=1]">
          <sink_list>
            <info><xsl:value-of select="info"/></info>
            <ID><xsl:value-of select="ID"/></ID>
          </sink_list>
        </xsl:for-each>
      </ChannelOpenResponse>
    </xsl:template>
  </xsl:stylesheet>"#;

/// One synthetic member entry (v2 shape). Contact strings mimic the CM
/// contact info of real deployments.
fn member_value(i: usize) -> Value {
    // Every member is both source and sink — the worst case the paper's
    // Table 1 measures, where the v1.0 rollback copies each contact into
    // all three lists ("the message size increases by three times").
    Value::Record(vec![
        Value::str(format!("n{:04}.gt.edu:7{:03}", i % 10_000, i % 1000)),
        Value::Int(i as i64),
        Value::Char(1),
        Value::Char(1),
    ])
}

/// Builds a v2.0 response with `n` members.
pub fn v2_message(n: usize) -> Value {
    Value::Record(vec![Value::Int(n as i64), Value::Array((0..n).map(member_value).collect())])
}

/// The unencoded native size (bytes) of a v2 message with `n` members.
fn v2_native_size(n: usize) -> usize {
    v2_message(n).native_record_size(&response_v2())
}

/// Finds the member count whose unencoded v2 message is closest to
/// `target_bytes` (the paper's size axis).
pub fn members_for_size(target_bytes: usize) -> usize {
    if target_bytes <= v2_native_size(0) {
        return 0;
    }
    // Member entries have near-constant size; interpolate then refine.
    let per = (v2_native_size(64) - v2_native_size(0)) as f64 / 64.0;
    let mut n = ((target_bytes - v2_native_size(0)) as f64 / per).round().max(0.0) as usize;
    loop {
        let size = v2_native_size(n);
        if size < target_bytes && v2_native_size(n + 1) <= target_bytes {
            n += 1;
        } else if size > target_bytes && n > 0 && v2_native_size(n - 1) >= target_bytes {
            n -= 1;
        } else {
            // Pick the closer of n / n+1.
            let below = v2_native_size(n) as i64;
            let above = v2_native_size(n + 1) as i64;
            let t = target_bytes as i64;
            if (above - t).abs() < (t - below).abs() {
                n += 1;
            }
            return n;
        }
    }
}

/// The paper's size sweep: 100 B, 1 KB, 10 KB, 100 KB, 1 MB.
pub const SWEEP: [usize; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// One column of Table 1, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Member count generating this row.
    pub members: usize,
    /// Unencoded native size of the v2.0 message (the baseline column).
    pub unencoded_v2: usize,
    /// PBIO-encoded v2.0 wire size.
    pub pbio_v2: usize,
    /// Unencoded native size after rollback to v1.0.
    pub unencoded_v1: usize,
    /// XML-encoded v2.0 size.
    pub xml_v2: usize,
    /// XML-encoded v1.0 size.
    pub xml_v1: usize,
}

/// The five size columns of Table 1 for a message of `n` members; the v1.0
/// record is the Fig. 5 rollback of the v2.0 one.
pub fn table1_row(n: usize) -> Table1Row {
    let (v2, v1) = (response_v2(), response_v1());
    let v2_val = v2_message(n);
    let v1_val = fig5_rollback(&v2_val);
    Table1Row {
        members: n,
        unencoded_v2: v2_val.native_record_size(&v2),
        pbio_v2: Encoder::new(&v2).encode(&v2_val).expect("workload conforms").len(),
        unencoded_v1: v1_val.native_record_size(&v1),
        xml_v2: xmlt::value_to_xml(&v2_val, &v2).len(),
        xml_v1: xmlt::value_to_xml(&v1_val, &v1).len(),
    }
}

/// Rolls a v2.0 response back to v1.0 the way a v1.0 receiver does: the
/// message encoded, morphed by a [`MorphReceiver`] that holds the Fig. 5
/// transformation, and the record it delivers returned.
pub fn fig5_rollback(v2_val: &Value) -> Value {
    let (tx, delivered) = std::sync::mpsc::channel();
    let mut rx = MorphReceiver::new();
    rx.register_handler(&response_v1(), move |v| tx.send(v).expect("the caller waits"));
    rx.import_transformation(fig5_transformation());
    let wire = Encoder::new(&response_v2()).encode(v2_val).expect("workload conforms");
    rx.process(&wire).expect("Fig. 5 runs");
    delivered.try_recv().expect("Fig. 5 delivers a v1.0 record")
}

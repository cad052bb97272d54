//! ECho wire protocol: control-message formats (both historical versions of
//! `ChannelOpenResponse`, per the paper's Fig. 4), the Fig. 5
//! retro-transformation, and the network frame.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use morph::Transformation;
use pbio::{FormatBuilder, RecordFormat, Value, WireBytes};

use crate::crc::crc32;

/// Identifies an event channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A channel member as tracked by the channel creator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// CM contact information (transport address string).
    pub contact: String,
    /// Creator-assigned member id.
    pub id: i64,
    /// Subscribed as an event source.
    pub is_source: bool,
    /// Subscribed as an event sink.
    pub is_sink: bool,
}

/// Builds a static control-plane format on first use and hands out clones
/// of the one `Arc` afterwards: the descriptions never change, so every
/// process (and every control frame) shares a single validated tree
/// instead of rebuilding it.
fn shared_format(
    cell: &'static OnceLock<Arc<RecordFormat>>,
    describe: fn() -> FormatBuilder,
) -> Arc<RecordFormat> {
    Arc::clone(cell.get_or_init(|| describe().build_arc().expect("static format is valid")))
}

/// The `ChannelOpenRequest` format (one version suffices; morphing handles
/// response evolution).
pub fn channel_open_request() -> Arc<RecordFormat> {
    static FORMAT: OnceLock<Arc<RecordFormat>> = OnceLock::new();
    shared_format(&FORMAT, || {
        FormatBuilder::record("ChannelOpenRequest")
            .int("channel")
            .string("contact")
            .int("is_source")
            .int("is_sink")
    })
}

/// Member entry of the v1.0 response: contact info + id (appears in up to
/// three lists — the duplication the v2.0 redesign removed).
pub fn member_v1() -> Arc<RecordFormat> {
    static FORMAT: OnceLock<Arc<RecordFormat>> = OnceLock::new();
    shared_format(&FORMAT, || FormatBuilder::record("Member").string("info").int("ID"))
}

/// Member entry of the v2.0 response: contact info + id + role booleans
/// (paper Fig. 4b).
pub fn member_v2() -> Arc<RecordFormat> {
    static FORMAT: OnceLock<Arc<RecordFormat>> = OnceLock::new();
    shared_format(&FORMAT, || {
        FormatBuilder::record("Member").string("info").int("ID").int("is_source").int("is_sink")
    })
}

/// `ChannelOpenResponse` as in ECho v1.0 (paper Fig. 4a): the member list
/// plus separate source and sink lists (a member can appear three times).
pub fn channel_open_response_v1() -> Arc<RecordFormat> {
    static FORMAT: OnceLock<Arc<RecordFormat>> = OnceLock::new();
    shared_format(&FORMAT, || {
        FormatBuilder::record("ChannelOpenResponse")
            .int("channel")
            .int("member_count")
            .var_array_of("member_list", member_v1(), "member_count")
            .int("src_count")
            .var_array_of("src_list", member_v1(), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member_v1(), "sink_count")
    })
}

/// `ChannelOpenResponse` as in ECho v2.0 (paper Fig. 4b): one list with
/// role flags — less than half the size of v1 on typical memberships.
pub fn channel_open_response_v2() -> Arc<RecordFormat> {
    static FORMAT: OnceLock<Arc<RecordFormat>> = OnceLock::new();
    shared_format(&FORMAT, || {
        FormatBuilder::record("ChannelOpenResponse")
            .int("channel")
            .int("member_count")
            .var_array_of("member_list", member_v2(), "member_count")
    })
}

/// The paper's Fig. 5 Ecode, extended with the `channel` routing field:
/// rolls a v2.0 response back to v1.0 at an old subscriber.
pub const RESPONSE_V2_TO_V1: &str = r#"
    int i;
    int sink_count = 0;
    int src_count = 0;
    old.channel = new.channel;
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

/// The writer-supplied retro-transformation v2.0 → v1.0 (out-of-band
/// meta-data attached to the v2 response format).
pub fn response_retro_transformation() -> Transformation {
    static XFORM: OnceLock<Transformation> = OnceLock::new();
    XFORM
        .get_or_init(|| {
            Transformation::new(
                channel_open_response_v2(),
                channel_open_response_v1(),
                RESPONSE_V2_TO_V1,
            )
        })
        .clone()
}

/// The forward transformation v1.0 → v2.0, also shipped with the v2.0
/// release: reconstructs the role booleans by joining the v1 source/sink
/// lists on member id. Without it, a v2.0 subscriber served by a v1.0
/// creator would near-match the response and default every role flag to
/// false — syntactically fine, semantically lossy. This is the paper's
/// point that transformations "can guarantee both syntactic and semantic
/// compatibility".
const RESPONSE_V1_TO_V2: &str = r#"
    int i;
    int j;
    old.channel = new.channel;
    old.member_count = new.member_count;
    for (i = 0; i < new.member_count; i++) {
        old.member_list[i].info = new.member_list[i].info;
        old.member_list[i].ID = new.member_list[i].ID;
        old.member_list[i].is_source = 0;
        old.member_list[i].is_sink = 0;
        for (j = 0; j < new.src_count; j++) {
            if (new.src_list[j].ID == new.member_list[i].ID) {
                old.member_list[i].is_source = 1;
            }
        }
        for (j = 0; j < new.sink_count; j++) {
            if (new.sink_list[j].ID == new.member_list[i].ID) {
                old.member_list[i].is_sink = 1;
            }
        }
    }
"#;

/// The forward transformation as out-of-band meta-data.
pub fn response_forward_transformation() -> Transformation {
    static XFORM: OnceLock<Transformation> = OnceLock::new();
    XFORM
        .get_or_init(|| {
            Transformation::new(
                channel_open_response_v1(),
                channel_open_response_v2(),
                RESPONSE_V1_TO_V2,
            )
        })
        .clone()
}

/// Builds a v1.0 response value from a member list.
pub fn response_v1_value(channel: ChannelId, members: &[MemberInfo]) -> Value {
    let entry =
        |m: &MemberInfo| Value::Record(vec![Value::str(m.contact.clone()), Value::Int(m.id)]);
    let all: Vec<Value> = members.iter().map(entry).collect();
    let srcs: Vec<Value> = members.iter().filter(|m| m.is_source).map(entry).collect();
    let sinks: Vec<Value> = members.iter().filter(|m| m.is_sink).map(entry).collect();
    Value::Record(vec![
        Value::Int(i64::from(channel.0)),
        Value::Int(all.len() as i64),
        Value::Array(all),
        Value::Int(srcs.len() as i64),
        Value::Array(srcs),
        Value::Int(sinks.len() as i64),
        Value::Array(sinks),
    ])
}

/// Builds a v2.0 response value from a member list.
pub fn response_v2_value(channel: ChannelId, members: &[MemberInfo]) -> Value {
    let all: Vec<Value> = members
        .iter()
        .map(|m| {
            Value::Record(vec![
                Value::str(m.contact.clone()),
                Value::Int(m.id),
                Value::Int(i64::from(m.is_source)),
                Value::Int(i64::from(m.is_sink)),
            ])
        })
        .collect();
    Value::Record(vec![
        Value::Int(i64::from(channel.0)),
        Value::Int(all.len() as i64),
        Value::Array(all),
    ])
}

/// Extracts the member list from a decoded v1 response, joining the
/// source/sink lists back onto the members by contact.
pub fn members_from_v1(value: &Value) -> Vec<MemberInfo> {
    let v1 = channel_open_response_v1();
    let list = |name: &str| value.field(&v1, name).and_then(Value::as_array).unwrap_or(&[]);
    let contacts = |name: &str| -> HashSet<&str> {
        list(name).iter().filter_map(|m| m.as_record()?.first()?.as_str()).collect()
    };
    let (srcs, sinks) = (contacts("src_list"), contacts("sink_list"));
    list("member_list")
        .iter()
        .filter_map(|m| {
            let r = m.as_record()?;
            let contact = r.first()?.as_str()?;
            let id = r.get(1)?.as_i64()?;
            Some(MemberInfo {
                contact: contact.to_string(),
                id,
                is_source: srcs.contains(contact),
                is_sink: sinks.contains(contact),
            })
        })
        .collect()
}

/// Extracts the member list from a decoded v2 response.
pub fn members_from_v2(value: &Value) -> Vec<MemberInfo> {
    let v2 = channel_open_response_v2();
    value
        .field(&v2, "member_list")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let r = m.as_record()?;
            Some(MemberInfo {
                contact: r.first()?.as_str()?.to_string(),
                id: r.get(1)?.as_i64()?,
                is_source: r.get(2)?.as_i64()? != 0,
                is_sink: r.get(3)?.as_i64()? != 0,
            })
        })
        .collect()
}

/// Channel id carried in a control message (field `channel`); `None`
/// when the field is missing or its value is no channel id (negative, or
/// past `u32::MAX`).
pub fn channel_of(value: &Value, format: &RecordFormat) -> Option<ChannelId> {
    value.field(format, "channel")?.as_i64().and_then(|v| u32::try_from(v).ok()).map(ChannelId)
}

// -- framing ---------------------------------------------------------------

/// Frame kind: a control-plane PBIO message.
pub const FRAME_CONTROL: u8 = 0;
/// Frame kind: an event on a channel.
pub const FRAME_EVENT: u8 = 1;
/// Frame kind: a session-resume handshake from a restarted process. The
/// payload is empty — the header's epoch field carries the new
/// incarnation, and receiving it (or any frame with a higher epoch) fences
/// every older incarnation's frames.
pub const FRAME_RESUME: u8 = 2;

/// Frame header size: kind (1) + channel (4) + seq (8) + trace (8) +
/// qos (1) + frag_index (2) + frag_count (2) + epoch (4) + crc32 (4).
pub const FRAME_HEADER_LEN: usize = 34;

/// Header field widths in wire order — the one table every field offset
/// below derives from.
pub(crate) const HEADER_LAYOUT: [usize; 9] = [1, 4, 8, 8, 1, 2, 2, 4, 4];

/// Byte range of the `index`-th header field.
pub(crate) const fn header_field(index: usize) -> Range<usize> {
    let mut start = 0;
    let mut i = 0;
    while i < index {
        start += HEADER_LAYOUT[i];
        i += 1;
    }
    start..start + HEADER_LAYOUT[index]
}

const KIND_AT: usize = header_field(0).start;
const CHANNEL_FIELD: Range<usize> = header_field(1);
const SEQ_FIELD: Range<usize> = header_field(2);
const TRACE_FIELD: Range<usize> = header_field(3);
const QOS_AT: usize = header_field(4).start;
const FRAG_INDEX_FIELD: Range<usize> = header_field(5);
const FRAG_COUNT_FIELD: Range<usize> = header_field(6);
const EPOCH_FIELD: Range<usize> = header_field(7);
/// The checksum is the last header field: it covers everything before it
/// and the payload after it.
const CRC_FIELD: Range<usize> = header_field(8);

/// An absent trace id on the wire: the frame joins no trace.
pub const NO_TRACE: u64 = 0;

/// One message in this many is timed: its encode at the sender, and its
/// unframe and delivery at every process it reaches
/// (`echo.stage.*`, `morph.process_ns`, `pbio.decode_ns`). Counters still
/// count every message.
pub const SAMPLE_EVERY: u64 = 64;

/// Whether the message with frame seq `seq` is timed: one seq in
/// [`SAMPLE_EVERY`] of any run of seqs, whatever its stride.
///
/// The rule reads the seq, not the trace id: with tracing off every frame
/// carries [`NO_TRACE`]. Every fragment, retry and duplicate of a message
/// carries its seq, so a message is timed at its sender and at every
/// stage of every sink, or nowhere. The seq is scrambled (Fibonacci
/// hashing) before it is compared, because a process's seqs are not all
/// its messages': trace ids come from the same counter, so with tracing
/// on a publisher's event seqs step by two and `seq % SAMPLE_EVERY == 0`
/// would time none of them.
pub fn sampled(seq: u64) -> bool {
    seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) <= u64::MAX / SAMPLE_EVERY
}

/// Per-channel delivery-guarantee tier, carried in every frame header so a
/// receiver enforces policy straight off the (CRC-protected) wire — no
/// side-channel registry distribution is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QosTier {
    /// Full reliability: retry with backoff over link loss, duplicate
    /// suppression, dead-lettering. The default for every channel.
    Reliable,
    /// Newest-wins: event frames whose message sequence trails the latest
    /// seen from the same sender are dropped at the receiver (counted as
    /// stale, never dead-lettered); link loss is not retried.
    SequencedUnreliable,
    /// Fire-and-forget telemetry: no retry, no ordering guarantee, and
    /// first in line for load shedding when a bounded queue is full.
    UnorderedUnreliable,
}

impl QosTier {
    /// Every tier, in wire-byte and metric-label order.
    pub const ALL: [QosTier; 3] =
        [QosTier::Reliable, QosTier::SequencedUnreliable, QosTier::UnorderedUnreliable];

    /// The tier's one-byte wire encoding (its index in [`QosTier::ALL`]).
    pub fn to_wire(self) -> u8 {
        match self {
            QosTier::Reliable => 0,
            QosTier::SequencedUnreliable => 1,
            QosTier::UnorderedUnreliable => 2,
        }
    }

    /// Decodes a wire byte; `None` for values no tier encodes to.
    fn from_wire(b: u8) -> Option<QosTier> {
        QosTier::ALL.get(usize::from(b)).copied()
    }

    /// Stable label used in `echo.channel.<label>.*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            QosTier::Reliable => "reliable",
            QosTier::SequencedUnreliable => "sequenced",
            QosTier::UnorderedUnreliable => "unordered",
        }
    }
}

impl std::fmt::Display for QosTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A parsed (and checksum-verified) ECho network frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// [`FRAME_CONTROL`] or [`FRAME_EVENT`].
    pub kind: u8,
    /// Routing channel.
    pub channel: ChannelId,
    /// Sender-assigned sequence number (unique per sender). Every fragment
    /// of one fragmented message shares its message's seq; duplicate
    /// suppression therefore keys on `(sender, seq, frag_index)`.
    pub seq: u64,
    /// Causal trace id minted by the originating process ([`NO_TRACE`]
    /// when the sender traced nothing); receivers join this trace in
    /// their flight recorder.
    pub trace: u64,
    /// Delivery tier the sender stamped on the frame.
    pub qos: QosTier,
    /// This fragment's position in its set (`0` for unfragmented frames).
    pub frag_index: u16,
    /// Total fragments in the set (`1` for unfragmented frames; always
    /// ≥ 1 and > `frag_index` — [`unframe`] rejects anything else).
    pub frag_count: u16,
    /// The sender's incarnation at send time: bumped on every
    /// crash-restart, so receivers can fence frames from an incarnation
    /// the sender has already outlived (stale-epoch fencing). `0` for a
    /// process that has never crashed.
    pub epoch: u32,
    /// The PBIO message bytes (one fragment's slice when
    /// `frag_count > 1`).
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// True when this frame carries one fragment of a larger message.
    pub fn is_fragment(&self) -> bool {
        self.frag_count > 1
    }
}

/// Why a frame was rejected before reaching any decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header.
    Truncated,
    /// The CRC-32 did not match: the frame was damaged in flight.
    BadChecksum,
    /// The QoS byte names no known tier (checksum-valid, so this is a
    /// hostile or incompatible sender, not wire damage).
    BadQos(u8),
    /// Impossible fragment fields: a zero fragment count, or an index at
    /// or past the count.
    BadFragment {
        /// Claimed fragment index.
        index: u16,
        /// Claimed set size.
        count: u16,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadQos(b) => write!(f, "unknown qos tier byte {b:#04x}"),
            FrameError::BadFragment { index, count } => {
                write!(f, "impossible fragment fields: index {index} of {count}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The checksum a frame should carry: CRC-32 over every header field
/// before the checksum slot, continued over the payload after it.
/// `bytes` must hold at least a full header.
fn frame_crc(bytes: &[u8]) -> u32 {
    crc32(crc32(0, &bytes[..CRC_FIELD.start]), &bytes[FRAME_HEADER_LEN..])
}

/// Writes [`frame_crc`] into the checksum slot of an assembled frame.
fn seal(bytes: &mut [u8]) {
    let crc = frame_crc(bytes);
    bytes[CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
}

/// Little-endian bytes of one header field, `None` when `bytes` is too
/// short to hold it.
fn field<const N: usize>(bytes: &[u8], at: Range<usize>) -> Option<[u8; N]> {
    bytes.get(at)?.try_into().ok()
}

/// Wraps a PBIO message in an ECho network frame:
/// `[kind u8][channel u32][seq u64][trace u64][qos u8][frag_index u16]`
/// `[frag_count u16][epoch u32][crc32 u32][payload]`, all little-endian.
/// The CRC-32 covers every header field and the payload, so any
/// single-byte damage anywhere in the frame is detected by [`unframe`].
/// Pass [`NO_TRACE`] when the message joins no trace. This shorthand
/// stamps [`QosTier::Reliable`], unfragmented fields (`0 of 1`), and
/// epoch `0` (a never-crashed sender); use [`frame_qos`] to set them.
///
/// This is the *one* place on the send path where payload bytes are
/// copied: the returned [`WireBytes`] is a shared buffer, so fan-out,
/// retry queues, and the simulated wire all clone views of it rather
/// than the bytes themselves.
pub fn frame(kind: u8, channel: ChannelId, seq: u64, trace: u64, pbio_msg: &[u8]) -> WireBytes {
    frame_qos(kind, channel, seq, trace, QosTier::Reliable, 0, 1, 0, pbio_msg)
}

/// [`frame`] with explicit QoS tier, fragment fields, and sender epoch.
/// Fragments of one message share the message's `seq` and carry `index`
/// in `0..count`.
///
/// # Panics
///
/// Panics if `count == 0` or `index >= count` — such a frame could never
/// pass [`unframe`], so building one is a sender bug.
#[allow(clippy::too_many_arguments)]
pub fn frame_qos(
    kind: u8,
    channel: ChannelId,
    seq: u64,
    trace: u64,
    qos: QosTier,
    index: u16,
    count: u16,
    epoch: u32,
    pbio_msg: &[u8],
) -> WireBytes {
    assert!(count > 0 && index < count, "impossible fragment fields: index {index} of {count}");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + pbio_msg.len());
    out.push(kind);
    out.extend_from_slice(&channel.0.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.push(qos.to_wire());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&[0; CRC_FIELD.end - CRC_FIELD.start]);
    out.extend_from_slice(pbio_msg);
    seal(&mut out);
    WireBytes::from(out)
}

/// Rewrites the epoch field of an already-built frame, re-sealing the
/// checksum — used when a restarted sender redelivers frames recovered
/// from its journal: the bytes were framed under the previous incarnation,
/// and sending them unchanged would be fenced by every receiver. Shares
/// nothing with the input; the returned buffer is a fresh copy.
///
/// # Panics
///
/// Panics if `bytes` is shorter than a frame header — journals only hold
/// frames that passed through [`frame_qos`], so this is a caller bug.
pub fn restamp_epoch(bytes: &[u8], epoch: u32) -> WireBytes {
    assert!(bytes.len() >= FRAME_HEADER_LEN, "restamp of a non-frame");
    let mut out = bytes.to_vec();
    out[EPOCH_FIELD].copy_from_slice(&epoch.to_le_bytes());
    seal(&mut out);
    WireBytes::from(out)
}

/// Best-effort read of the trace id from raw frame bytes, **without**
/// checksum verification — so even a frame that fails [`unframe`] (e.g.
/// corrupted in flight) can still be attributed to the trace it claims.
/// Returns `None` for frames too short to hold the field or carrying
/// [`NO_TRACE`]. If the corruption hit the trace field itself the id read
/// here may be wrong; that is inherent to reading damaged bytes, and the
/// attribution stays deterministic for a given damaged frame.
pub fn peek_trace(bytes: &[u8]) -> Option<u64> {
    let trace = u64::from_le_bytes(field(bytes, TRACE_FIELD)?);
    if trace == NO_TRACE {
        None
    } else {
        Some(trace)
    }
}

/// Best-effort read of the QoS tier from raw frame bytes, **without**
/// checksum verification — used by shed-victim selection, which must
/// classify queued frames cheaply. Returns `None` for buffers too short
/// to hold the field or carrying an unknown tier byte.
pub fn peek_qos(bytes: &[u8]) -> Option<QosTier> {
    QosTier::from_wire(*bytes.get(QOS_AT)?)
}

/// Best-effort read of the channel id from raw frame bytes, **without**
/// checksum verification — used to key journal entries for frames the
/// sender built itself (so corruption is not a concern on this path).
pub fn peek_channel(bytes: &[u8]) -> Option<ChannelId> {
    Some(ChannelId(u32::from_le_bytes(field(bytes, CHANNEL_FIELD)?)))
}

/// Best-effort read of `(seq, frag_index, frag_count)` from raw frame
/// bytes, **without** checksum verification — used to shed *whole*
/// fragment sets (queue-mates sharing the sender's `seq`) so no orphan
/// fragments leak into reassembly buffers. Returns `None` for buffers too
/// short to hold the fields.
pub fn peek_frag(bytes: &[u8]) -> Option<(u64, u16, u16)> {
    let seq = u64::from_le_bytes(field(bytes, SEQ_FIELD)?);
    let index = u16::from_le_bytes(field(bytes, FRAG_INDEX_FIELD)?);
    let count = u16::from_le_bytes(field(bytes, FRAG_COUNT_FIELD)?);
    Some((seq, index, count))
}

/// Best-effort read of the sender epoch from raw frame bytes, **without**
/// checksum verification — used to attribute fenced frames before full
/// parsing. Returns `None` for buffers too short to hold the field.
fn peek_epoch(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(field(bytes, EPOCH_FIELD)?))
}

/// Shed-priority class of a queued raw frame: `None` for control frames
/// (never shed) and anything too short to classify; otherwise lower is
/// shed first — unordered telemetry (0), then sequenced (1), then
/// reliable events (2). Unreadable tiers classify as reliable.
pub fn shed_class(bytes: &[u8]) -> Option<u8> {
    if bytes.get(KIND_AT) != Some(&FRAME_EVENT) {
        return None;
    }
    Some(match peek_qos(bytes) {
        Some(QosTier::UnorderedUnreliable) => 0,
        Some(QosTier::SequencedUnreliable) => 1,
        _ => 2,
    })
}

/// Parses and checksum-verifies a frame. Corrupted frames are rejected
/// here — damaged bytes never reach a PBIO decoder.
///
/// # Errors
///
/// [`FrameError::Truncated`] for short input, [`FrameError::BadChecksum`]
/// when the frame was damaged in flight, [`FrameError::BadQos`] /
/// [`FrameError::BadFragment`] when a checksum-valid frame carries
/// impossible header fields (a hostile or incompatible sender).
pub fn unframe(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let stored = u32::from_le_bytes(field(bytes, CRC_FIELD).ok_or(FrameError::Truncated)?);
    if frame_crc(bytes) != stored {
        return Err(FrameError::BadChecksum);
    }
    // The length check above covers every header field, so the peeks
    // below cannot come back short.
    let kind = bytes[KIND_AT];
    let channel = peek_channel(bytes).ok_or(FrameError::Truncated)?;
    let (seq, frag_index, frag_count) = peek_frag(bytes).ok_or(FrameError::Truncated)?;
    let trace = u64::from_le_bytes(field(bytes, TRACE_FIELD).ok_or(FrameError::Truncated)?);
    let qos_byte = bytes[QOS_AT];
    let epoch = peek_epoch(bytes).ok_or(FrameError::Truncated)?;
    let payload = &bytes[FRAME_HEADER_LEN..];
    let qos = QosTier::from_wire(qos_byte).ok_or(FrameError::BadQos(qos_byte))?;
    if frag_count == 0 || frag_index >= frag_count {
        return Err(FrameError::BadFragment { index: frag_index, count: frag_count });
    }
    Ok(Frame { kind, channel, seq, trace, qos, frag_index, frag_count, epoch, payload })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use morph::diff;
    use simnet::XorShift64;

    /// Overwrites `value.len()` bytes of a valid frame at `at` and seals
    /// the checksum again, so the result reaches the checks behind the CRC.
    pub(crate) fn reseal(framed: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut out = framed.to_vec();
        out[at..at + value.len()].copy_from_slice(value);
        seal(&mut out);
        out
    }

    fn members() -> Vec<MemberInfo> {
        vec![
            MemberInfo { contact: "a:1".into(), id: 1, is_source: true, is_sink: false },
            MemberInfo { contact: "b:2".into(), id: 2, is_source: false, is_sink: true },
            MemberInfo { contact: "c:3".into(), id: 3, is_source: true, is_sink: true },
        ]
    }

    #[test]
    fn response_values_conform_to_formats() {
        response_v1_value(ChannelId(7), &members()).check(&channel_open_response_v1()).unwrap();
        response_v2_value(ChannelId(7), &members()).check(&channel_open_response_v2()).unwrap();
    }

    #[test]
    fn v2_message_is_less_than_half_of_v1_for_full_members() {
        // The paper: "reduced the size of the response message by more than
        // half" (every member in all three lists is the worst case; here
        // members hold mixed roles, still a large saving).
        let all_roles: Vec<MemberInfo> = (0..50)
            .map(|i| MemberInfo {
                contact: format!("host-{i}.example.org:61{i:03}"),
                id: i,
                is_source: true,
                is_sink: true,
            })
            .collect();
        let v1 = pbio::Encoder::new(&channel_open_response_v1())
            .encode(&response_v1_value(ChannelId(1), &all_roles))
            .unwrap();
        let v2 = pbio::Encoder::new(&channel_open_response_v2())
            .encode(&response_v2_value(ChannelId(1), &all_roles))
            .unwrap();
        assert!(
            v2.len() * 2 < v1.len(),
            "v2 ({}) should be less than half of v1 ({})",
            v2.len(),
            v1.len()
        );
    }

    /// A v1.0 receiver holding the retro-transformation delivers, for a
    /// v2.0 response, the v1.0 response the same members make.
    #[test]
    fn retro_transformation_compiles_and_is_faithful() {
        let (tx, delivered) = std::sync::mpsc::channel();
        let mut rx = morph::MorphReceiver::new();
        rx.register_handler(&channel_open_response_v1(), move |v| tx.send(v).unwrap());
        rx.import_transformation(response_retro_transformation());
        let v2_val = response_v2_value(ChannelId(9), &members());
        let wire = pbio::Encoder::new(&channel_open_response_v2()).encode(&v2_val).unwrap();
        rx.process(&wire).unwrap();
        let v1_val = delivered.try_recv().unwrap();
        v1_val.check(&channel_open_response_v1()).unwrap();
        assert_eq!(v1_val, response_v1_value(ChannelId(9), &members()));
    }

    #[test]
    fn member_roundtrip_through_both_versions() {
        let ms = members();
        assert_eq!(members_from_v1(&response_v1_value(ChannelId(1), &ms)), ms);
        assert_eq!(members_from_v2(&response_v2_value(ChannelId(1), &ms)), ms);
    }

    #[test]
    fn v1_role_join_skips_malformed_entries_and_keeps_member_order() {
        let entry = |c: &str, id: i64| Value::Record(vec![Value::str(c), Value::Int(id)]);
        let list = |items: Vec<Value>| [Value::Int(items.len() as i64), Value::Array(items)];
        // "z:9" is listed as a source and a sink twice over; "m:5" in
        // neither list; one member entry and one role entry are not
        // (contact, id) records and are passed over, not errors.
        let members = list(vec![entry("z:9", 9), Value::Int(0), entry("m:5", 5), entry("a:1", 1)]);
        let srcs = list(vec![entry("z:9", 9), entry("z:9", 9), Value::Record(vec![Value::Int(3)])]);
        let sinks = list(vec![entry("a:1", 1), entry("z:9", 9)]);
        let resp = Value::Record(
            [vec![Value::Int(1)], members.into(), srcs.into(), sinks.into()].concat(),
        );
        let info = |contact: &str, id, is_source, is_sink| MemberInfo {
            contact: contact.into(),
            id,
            is_source,
            is_sink,
        };
        assert_eq!(
            members_from_v1(&resp),
            vec![
                info("z:9", 9, true, true),
                info("m:5", 5, false, false),
                info("a:1", 1, false, true)
            ]
        );
        // A value that is not a response at all yields no members.
        assert_eq!(members_from_v1(&Value::Int(7)), Vec::new());
    }

    /// `FormatId`s of the control formats as the parent commit (rebuilding
    /// every tree per call) produced them: request, member v1/v2, response
    /// v1/v2.
    const CONTROL_FORMAT_IDS: [u64; 5] = [
        0x95fa_be30_335d_078b,
        0xfbf5_f4b0_f46f_14bd,
        0x07e0_6f17_cf91_6f17,
        0x324c_2abc_435c_e84b,
        0x0362_036d_69f9_f777,
    ];

    #[test]
    fn control_formats_are_built_once_and_keep_their_ids() {
        let constructors: [fn() -> Arc<RecordFormat>; 5] = [
            channel_open_request,
            member_v1,
            member_v2,
            channel_open_response_v1,
            channel_open_response_v2,
        ];
        for (build, id) in constructors.iter().zip(CONTROL_FORMAT_IDS) {
            let (a, b) = (build(), build());
            assert!(Arc::ptr_eq(&a, &b), "{}: every caller shares one tree", a.name());
            assert_eq!(pbio::format_id(&a).0, id, "{}: wire identity moved", a.name());
        }
        // The two response transformations hang off those same trees.
        let (v1, v2) = (channel_open_response_v1(), channel_open_response_v2());
        for (build, from, to) in [
            (response_retro_transformation as fn() -> Transformation, &v2, &v1),
            (response_forward_transformation, &v1, &v2),
        ] {
            for t in [build(), build()] {
                assert!(Arc::ptr_eq(t.from_format(), from) && Arc::ptr_eq(t.to_format(), to));
            }
        }
    }

    #[test]
    fn formats_share_name_but_differ_structurally() {
        let v1 = channel_open_response_v1();
        let v2 = channel_open_response_v2();
        assert_eq!(v1.name(), v2.name());
        assert_ne!(pbio::format_id(&v1), pbio::format_id(&v2));
        assert!(diff(&v2, &v1) > 0);
    }

    #[test]
    fn frame_roundtrip() {
        let framed = frame(FRAME_EVENT, ChannelId(3), 42, 0xA11CE, b"xyz");
        let f = unframe(&framed).unwrap();
        assert_eq!(f.kind, FRAME_EVENT);
        assert_eq!(f.channel, ChannelId(3));
        assert_eq!(f.seq, 42);
        assert_eq!(f.trace, 0xA11CE);
        assert_eq!(f.qos, QosTier::Reliable);
        assert_eq!((f.frag_index, f.frag_count), (0, 1));
        assert_eq!(f.epoch, 0, "the shorthand stamps a never-crashed sender");
        assert!(!f.is_fragment());
        assert_eq!(f.payload, b"xyz");
        assert_eq!(unframe(&[1, 2]), Err(FrameError::Truncated));
        assert_eq!(unframe(&framed[..FRAME_HEADER_LEN - 1]), Err(FrameError::Truncated));
    }

    #[test]
    fn qos_and_fragment_fields_roundtrip() {
        let framed = frame_qos(
            FRAME_EVENT,
            ChannelId(9),
            77,
            0xFACE,
            QosTier::SequencedUnreliable,
            2,
            5,
            3,
            b"part",
        );
        let f = unframe(&framed).unwrap();
        assert_eq!(f.qos, QosTier::SequencedUnreliable);
        assert_eq!((f.frag_index, f.frag_count), (2, 5));
        assert_eq!(f.epoch, 3);
        assert!(f.is_fragment());
        assert_eq!(f.payload, b"part");
        // The lightweight peeks agree with the verified parse.
        assert_eq!(peek_qos(&framed), Some(QosTier::SequencedUnreliable));
        assert_eq!(peek_frag(&framed), Some((77, 2, 5)));
        assert_eq!(peek_epoch(&framed), Some(3));
    }

    #[test]
    fn restamp_epoch_reseals_the_checksum() {
        let framed =
            frame_qos(FRAME_EVENT, ChannelId(4), 12, 0xFEED, QosTier::Reliable, 0, 1, 1, b"keep");
        let restamped = restamp_epoch(&framed, 2);
        let f = unframe(&restamped).expect("restamped frames parse");
        assert_eq!(f.epoch, 2);
        // Everything except the epoch (and the seal) is preserved.
        assert_eq!((f.kind, f.channel, f.seq, f.trace), (FRAME_EVENT, ChannelId(4), 12, 0xFEED));
        assert_eq!(f.payload, b"keep");
        // The original is untouched and still parses under its old epoch.
        assert_eq!(unframe(&framed).unwrap().epoch, 1);
    }

    #[test]
    fn qos_tier_wire_encoding_is_stable() {
        for tier in QosTier::ALL {
            assert_eq!(QosTier::from_wire(tier.to_wire()), Some(tier));
        }
        assert_eq!(QosTier::from_wire(3), None);
        assert_eq!(QosTier::from_wire(0xFF), None);
        assert_eq!(QosTier::Reliable.label(), "reliable");
        assert_eq!(QosTier::SequencedUnreliable.label(), "sequenced");
        assert_eq!(QosTier::UnorderedUnreliable.label(), "unordered");
    }

    #[test]
    fn checksum_valid_frames_with_impossible_fields_are_rejected() {
        let framed = frame(FRAME_EVENT, ChannelId(1), 4, NO_TRACE, b"ok");
        // Unknown QoS byte.
        assert_eq!(unframe(&reseal(&framed, QOS_AT, &[9])), Err(FrameError::BadQos(9)));
        // frag_count == 0.
        assert_eq!(
            unframe(&reseal(&framed, FRAG_COUNT_FIELD.start, &[0])),
            Err(FrameError::BadFragment { index: 0, count: 0 })
        );
        // frag_index >= frag_count.
        assert_eq!(
            unframe(&reseal(&framed, FRAG_INDEX_FIELD.start, &[7])),
            Err(FrameError::BadFragment { index: 7, count: 1 })
        );
    }

    #[test]
    fn shed_class_orders_tiers_and_spares_control() {
        let mk = |qos| frame_qos(FRAME_EVENT, ChannelId(1), 1, NO_TRACE, qos, 0, 1, 0, b"x");
        assert_eq!(shed_class(&mk(QosTier::UnorderedUnreliable)), Some(0));
        assert_eq!(shed_class(&mk(QosTier::SequencedUnreliable)), Some(1));
        assert_eq!(shed_class(&mk(QosTier::Reliable)), Some(2));
        // Control frames are never shed, whatever their tier byte says.
        let ctl = frame(FRAME_CONTROL, ChannelId(1), 1, NO_TRACE, b"x");
        assert_eq!(shed_class(&ctl), None);
        // An event frame cut too short to read its tier sheds as reliable.
        assert_eq!(shed_class(&mk(QosTier::UnorderedUnreliable)[..20]), Some(2));
        assert_eq!(shed_class(&[]), None);
    }

    /// Any run of message seqs is timed one in `SAMPLE_EVERY`: consecutive
    /// seqs (tracing off), every other one (tracing on, a trace id between
    /// two events) or sparser, in any process's seq range.
    #[test]
    fn one_message_in_sample_every_is_timed_at_every_stride() {
        let runs = 100;
        for stride in 1..=4 {
            for base in (0..4).map(|p: u64| p << 48).chain([7]) {
                let seqs = (0..runs * SAMPLE_EVERY).map(|i| base + stride * i);
                let timed = seqs.filter(|&seq| sampled(seq)).count() as u64;
                assert!(timed.abs_diff(runs) <= 3, "stride {stride} from {base}: {timed}");
            }
        }
    }

    #[test]
    fn peek_frag_and_peek_qos_never_read_past_short_buffers() {
        let framed = frame_qos(
            FRAME_EVENT,
            ChannelId(2),
            6,
            NO_TRACE,
            QosTier::UnorderedUnreliable,
            1,
            3,
            9,
            b"p",
        );
        for len in 0..framed.len() {
            let qos = peek_qos(&framed[..len]);
            let frag = peek_frag(&framed[..len]);
            let epoch = peek_epoch(&framed[..len]);
            if len < 22 {
                assert_eq!(qos, None, "length {len} cannot hold the qos byte");
            } else {
                assert_eq!(qos, Some(QosTier::UnorderedUnreliable));
            }
            if len < 26 {
                assert_eq!(frag, None, "length {len} cannot hold the fragment fields");
            } else {
                assert_eq!(frag, Some((6, 1, 3)));
            }
            if len < 30 {
                assert_eq!(epoch, None, "length {len} cannot hold the epoch field");
            } else {
                assert_eq!(epoch, Some(9));
            }
        }
    }

    fn random_bytes(rng: &mut XorShift64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// One 1,400-byte-budget fragment as `reliable_frag` puts it on the
    /// wire: 34 header bytes + 1,400 of payload.
    fn fragment_frame(rng: &mut XorShift64) -> WireBytes {
        let payload = random_bytes(rng, 1400);
        let framed =
            frame_qos(FRAME_EVENT, ChannelId(6), 31, 0xF00D, QosTier::Reliable, 3, 47, 2, &payload);
        assert_eq!(framed.len(), 1434);
        framed
    }

    #[test]
    fn header_field_offsets_tile_the_header() {
        assert_eq!(HEADER_LAYOUT.iter().sum::<usize>(), FRAME_HEADER_LEN);
        // Pinned literally too: a reordered layout table still sums to 34.
        assert_eq!((KIND_AT, QOS_AT), (0, 21));
        assert_eq!(CHANNEL_FIELD, 1..5);
        assert_eq!(SEQ_FIELD, 5..13);
        assert_eq!(TRACE_FIELD, 13..21);
        assert_eq!(FRAG_INDEX_FIELD, 22..24);
        assert_eq!(FRAG_COUNT_FIELD, 24..26);
        assert_eq!(EPOCH_FIELD, 26..30);
        assert_eq!(CRC_FIELD, 30..34);
    }

    #[test]
    fn golden_frame_bytes_are_pinned() {
        // Journals persist these bytes across restarts, so the wire image
        // is a compatibility contract: any change to the layout, the
        // endianness or the checksum polynomial (CRC-32C included) must
        // fail here. The literals were produced by the bit-at-a-time
        // implementation that preceded the table kernel.
        let framed = frame_qos(
            FRAME_EVENT,
            ChannelId(0x0102_0304),
            0x1112_1314_1516_1718,
            0x2122_2324_2526_2728,
            QosTier::SequencedUnreliable,
            2,
            5,
            0x3132_3334,
            b"golden payload",
        );
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(&framed),
            "01040302011817161514131211282726252423222101020005003433323\
             1f9cb859c676f6c64656e207061796c6f6164"
        );
        assert_eq!(
            hex(&restamp_epoch(&framed, 7)),
            "01040302011817161514131211282726252423222101020005000700000\
             009186a6c676f6c64656e207061796c6f6164"
        );
    }

    /// Whole frames whose payloads sit on both sides of the folding
    /// kernel's 64-byte threshold, up to the 9,650 bytes of a `cor_v2v1`
    /// response.
    fn frames_to_damage(rng: &mut XorShift64) -> Vec<WireBytes> {
        [0, 29, 63, 64, 65, 1_400, 9_650]
            .into_iter()
            .map(|len| {
                let payload = random_bytes(rng, len);
                frame_qos(FRAME_EVENT, ChannelId(7), 9, 77, QosTier::Reliable, 0, 1, 2, &payload)
            })
            .collect()
    }

    /// Flips every bit, then every whole byte, of `framed` — header,
    /// checksum field and payload — and expects each flip caught.
    fn every_flip_is_caught(framed: &[u8]) {
        assert!(unframe(framed).is_ok());
        let mut damaged = framed.to_vec();
        for i in 0..damaged.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                damaged[i] ^= flip;
                assert_eq!(
                    unframe(&damaged),
                    Err(FrameError::BadChecksum),
                    "flip {flip:#x} at byte {i} of {} went undetected",
                    damaged.len()
                );
                damaged[i] ^= flip;
            }
        }
    }

    #[test]
    fn any_single_byte_flip_fails_the_checksum() {
        // The chaos fault model flips exactly one byte; CRC-32 must catch
        // every such flip wherever it lands and, a fortiori, every
        // single-bit flip — whichever kernel computes it. As dispatched,
        // payloads from 64 bytes on fold; held to the table, the frames
        // stop at 1,434 bytes: unoptimised, the table kernel takes ~20 ns a
        // byte, and the 9,684-byte frame alone would take 16 s (crc.rs
        // holds it to the oracle at 9,658 and 65,569 bytes).
        let frames = frames_to_damage(&mut XorShift64::new(0xB17));
        frames.iter().for_each(|framed| every_flip_is_caught(framed));
        crate::crc::tests::on_the_table(|| {
            frames.iter().filter(|f| f.len() <= 1_434).for_each(|f| every_flip_is_caught(f));
        });
    }

    /// Toggles seeded error bursts of every width up to 32 bits into
    /// `framed` and expects each caught.
    fn every_short_burst_is_caught(framed: &[u8], rng: &mut XorShift64) {
        let total_bits = framed.len() * 8;
        let mut damaged = framed.to_vec();
        for width in 1..=32usize {
            for _ in 0..16 {
                let start = rng.below((total_bits - width + 1) as u64) as usize;
                let interior = if width > 2 { rng.next_u64() } else { 0 };
                let pattern =
                    1u64 | (1u64 << (width - 1)) | (interior << 1 & ((1u64 << width) - 1));
                let toggle = |buf: &mut [u8]| {
                    for k in (0..width).filter(|k| pattern >> k & 1 == 1) {
                        buf[(start + k) / 8] ^= 1 << ((start + k) % 8);
                    }
                };
                toggle(&mut damaged);
                assert_eq!(
                    unframe(&damaged),
                    Err(FrameError::BadChecksum),
                    "burst {pattern:#x} of {width} bits at bit {start} went undetected"
                );
                toggle(&mut damaged);
            }
        }
        assert!(unframe(&damaged).is_ok(), "every burst was undone");
    }

    #[test]
    fn any_burst_up_to_32_bits_fails_the_checksum() {
        // A degree-32 CRC detects every error burst no longer than 32
        // bits. A burst of width w is any pattern whose first and last
        // bits are set; the bits between are drawn from the PRNG.
        let mut rng = XorShift64::new(0xB0057);
        let frames = frames_to_damage(&mut rng);
        for framed in &frames {
            every_short_burst_is_caught(framed, &mut rng);
            crate::crc::tests::on_the_table(|| every_short_burst_is_caught(framed, &mut rng));
        }
    }

    #[test]
    fn every_truncation_of_a_fragment_frame_is_rejected() {
        let framed = fragment_frame(&mut XorShift64::new(0x7AC));
        for len in 0..framed.len() {
            let want = if len < FRAME_HEADER_LEN {
                FrameError::Truncated
            } else {
                FrameError::BadChecksum
            };
            assert_eq!(unframe(&framed[..len]), Err(want), "truncated to {len} bytes");
        }
    }

    #[test]
    fn empty_payload_frames_checksum_too() {
        let framed = frame(FRAME_CONTROL, ChannelId(0), 0, NO_TRACE, b"");
        assert_eq!(framed.len(), FRAME_HEADER_LEN);
        let f = unframe(&framed).unwrap();
        assert_eq!(f.payload, b"");
        assert_eq!(f.trace, NO_TRACE);
        let mut damaged = framed.to_vec();
        damaged[0] ^= 1;
        assert_eq!(unframe(&damaged), Err(FrameError::BadChecksum));
    }

    #[test]
    fn peek_trace_survives_checksum_failure() {
        let framed = frame(FRAME_EVENT, ChannelId(2), 5, 0xDECAF, b"data");
        assert_eq!(peek_trace(&framed), Some(0xDECAF));
        // Corrupt the payload: unframe rejects, peek still attributes.
        let mut damaged = framed.to_vec();
        *damaged.last_mut().unwrap() ^= 0xFF;
        assert_eq!(unframe(&damaged), Err(FrameError::BadChecksum));
        assert_eq!(peek_trace(&damaged), Some(0xDECAF));
        // Untraced frames and short fragments read as no trace.
        assert_eq!(peek_trace(&frame(FRAME_EVENT, ChannelId(2), 6, NO_TRACE, b"x")), None);
        assert_eq!(peek_trace(&framed[..12]), None);
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_rejected_cleanly() {
        // A hostile network can cut a frame anywhere. Every prefix must be
        // rejected with a classified error — never a panic, never a decode.
        let framed = frame(FRAME_EVENT, ChannelId(5), 11, 0xBEE, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 8);
        for len in 0..framed.len() {
            let want = if len < FRAME_HEADER_LEN {
                // Too short for the header: rejected before any field read.
                FrameError::Truncated
            } else {
                // Header present but the payload was cut: the CRC covers
                // the payload, so the loss is detected as damage.
                FrameError::BadChecksum
            };
            assert_eq!(unframe(&framed[..len]), Err(want), "truncated to {len} bytes");
        }
        assert!(unframe(&framed).is_ok(), "the untruncated frame still parses");
    }

    #[test]
    fn peek_trace_never_reads_past_short_buffers() {
        // peek_trace runs on unverified bytes, so it must bounds-check: the
        // trace field spans bytes 13..21, and any shorter buffer has no
        // trace to report.
        let framed = frame(FRAME_EVENT, ChannelId(5), 11, 0xBEE, b"payload");
        for len in 0..framed.len() {
            let peeked = peek_trace(&framed[..len]);
            if len < 21 {
                assert_eq!(peeked, None, "length {len} cannot hold the trace field");
            } else {
                assert_eq!(peeked, Some(0xBEE), "length {len} holds the full field");
            }
        }
        assert_eq!(peek_trace(&[]), None);
    }

    #[test]
    fn channel_extraction() {
        let v2 = channel_open_response_v2();
        let v = response_v2_value(ChannelId(12), &members());
        assert_eq!(channel_of(&v, &v2), Some(ChannelId(12)));
    }
}

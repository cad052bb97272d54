//! Helpers the integration tests share.

use pbio::Value;

/// A v2.0 `ChannelOpenResponse` wire message (little-endian, as this
/// machine's encoder writes it) converted to the v1.0 value by hand: the
/// routine a programmer would write instead of shipping Fig. 5 — and the
/// yardstick EXPERIMENTS.md measures the warm morph against.
pub fn hand_written_v2_wire_to_v1(wire: &[u8]) -> Value {
    fn int(at: &mut &[u8]) -> i64 {
        let (head, rest) = at.split_first_chunk::<4>().expect("truncated int");
        *at = rest;
        i64::from(i32::from_le_bytes(*head))
    }
    let mut at = &wire[pbio::HEADER_LEN..];
    let channel = int(&mut at);
    let count = int(&mut at);
    let mut members = Vec::with_capacity(count as usize);
    let (mut sources, mut sinks) = (Vec::new(), Vec::new());
    for _ in 0..count {
        let nul = at.iter().position(|&b| b == 0).expect("unterminated string");
        let info = std::str::from_utf8(&at[..nul]).expect("contact is UTF-8");
        at = &at[nul + 1..];
        let id = int(&mut at);
        let entry = || Value::Record(vec![Value::str(info), Value::Int(id)]);
        if int(&mut at) != 0 {
            sources.push(entry());
        }
        if int(&mut at) != 0 {
            sinks.push(entry());
        }
        members.push(entry());
    }
    assert!(at.is_empty(), "trailing bytes");
    Value::Record(vec![
        Value::Int(channel),
        Value::Int(count),
        Value::Array(members),
        Value::Int(sources.len() as i64),
        Value::Array(sources),
        Value::Int(sinks.len() as i64),
        Value::Array(sinks),
    ])
}

//! `cor_v2v1` — the paper's §4.1/§5 exchange as an event stream: a v2.0
//! `ChannelOpenResponse` with 400 members (the 10 KB point of Figs. 8–10)
//! published to one sink that expects v1.0, morphed on receipt by the
//! Fig. 5 transformation. Warm path only: `pbio` decode, the `ecode` run
//! and the frame CRC do nearly all the work; `simnet` and `EchoSystem`
//! bookkeeping almost none.

use std::sync::Arc;

use echo::{proto, ChannelId, EchoSystem, EchoVersion, MemberInfo, ProcessId, QosTier};
use obs::Registry;
use pbio::{RecordFormat, Value};
use simnet::LinkParams;

use super::{LayerSpec, OpClock, OpResult, Phase, Scale, Workload};
use crate::err;
use crate::gen::{contact, Rng};

const MEMBERS: u64 = 400;

/// The Fig. 5 rollback as XSLT, for the XML/XSLT baseline.
const FIG5_XSL: &str = r#"
  <xsl:stylesheet>
    <xsl:template match="/ChannelOpenResponse">
      <ChannelOpenResponse>
        <channel><xsl:value-of select="channel"/></channel>
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

pub struct CorV2V1 {
    sys: EchoSystem,
    publisher: ProcessId,
    sink: ProcessId,
    ch: ChannelId,
    v2: Arc<RecordFormat>,
    /// The v2 response published every operation; its `channel` field
    /// carries the operation number so a stale delivery cannot pass.
    value: Value,
    /// `value` rolled back to v1 once, by the tree-walking oracle.
    expected: Value,
    seq: i64,
    spec: LayerSpec,
}

impl CorV2V1 {
    pub fn new(seed: u64, scale: Scale) -> Result<CorV2V1, String> {
        let mut rng = Rng::new(seed, 1);
        let members: Vec<MemberInfo> = (0..scale.of(MEMBERS))
            .map(|i| MemberInfo {
                contact: contact(&mut rng),
                id: i as i64,
                is_source: rng.below(2) == 1,
                is_sink: rng.below(2) == 1,
            })
            .collect();
        let value = proto::response_v2_value(ChannelId(0), &members);
        let retro = proto::response_retro_transformation();
        let expected = retro.compile().map_err(err)?.apply_interp(&value).map_err(err)?;

        let mut sys = EchoSystem::new();
        sys.set_tracing(false);
        let publisher = sys.add_process("publisher", EchoVersion::V2);
        let sink = sys.add_process("sink", EchoVersion::V1);
        sys.connect(publisher, sink, LinkParams::lan());
        let ch = sys.create_channel(publisher);
        // Every process ships with the Fig. 5 meta-data; the sink only
        // declares the v1 format it understands.
        let v1 = proto::channel_open_response_v1();
        sys.provision_sink(sink, ch, &v1).map_err(err)?;

        let v2 = proto::channel_open_response_v2();
        let spec = LayerSpec {
            wire_format: Arc::clone(&v2),
            reader_format: v1,
            xforms: vec![retro],
            channel: ch,
            tier: QosTier::Reliable,
            frame_budget: None,
            journal_batch: None,
            link: LinkParams::lan(),
            publishes_per_op: 1,
            sinks: 1,
            stylesheet: Some(FIG5_XSL),
        };
        Ok(CorV2V1 { sys, publisher, sink, ch, v2, value, expected, seq: 0, spec })
    }
}

fn set_channel_field(record: &mut Value, n: i64) {
    if let Some(fields) = record.as_record_mut() {
        fields[0] = Value::Int(n);
    }
}

impl Workload for CorV2V1 {
    fn op(&mut self, clock: &mut OpClock) -> Result<OpResult, String> {
        self.seq += 1;
        set_channel_field(&mut self.value, self.seq);
        set_channel_field(&mut self.expected, self.seq);
        let (sys, value) = (&mut self.sys, &self.value);
        clock
            .time(Phase::Publish, || sys.publish(self.publisher, self.ch, &self.v2, value))
            .map_err(err)?;
        clock.time(Phase::Run, || sys.run());
        let events = clock.time(Phase::Drain, || sys.take_events(self.sink));
        match events.as_slice() {
            [] => Ok(OpResult { deliveries: 0, failed: true }),
            [(ch, v)] if *ch == self.ch && *v == self.expected => {
                Ok(OpResult { deliveries: 1, failed: false })
            }
            [_] => {
                Err(format!("cor_v2v1 op {}: delivered value differs from the oracle", self.seq))
            }
            many => {
                Err(format!("cor_v2v1 op {}: {} deliveries for one publish", self.seq, many.len()))
            }
        }
    }

    fn sys(&self) -> &EchoSystem {
        &self.sys
    }

    fn sys_mut(&mut self) -> &mut EchoSystem {
        &mut self.sys
    }

    fn spec(&self) -> &LayerSpec {
        &self.spec
    }

    fn last_value(&self) -> &Value {
        &self.value
    }

    fn registries(&self) -> Vec<Arc<Registry>> {
        let rx = self.sys.event_registry(self.sink, self.ch).expect("sink expects events");
        vec![Arc::clone(rx), Arc::clone(self.sys.control_registry(self.publisher))]
    }
}

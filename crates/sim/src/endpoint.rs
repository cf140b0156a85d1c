//! A compact TCP endpoint state machine: enough of real TCP to generate the
//! packet dynamics Dart must survive — slow start and AIMD congestion
//! control, timeout and fast retransmission, delayed and cumulative ACKs,
//! out-of-order buffering with duplicate ACKs, FIN teardown, and abort on
//! retry exhaustion.
//!
//! The endpoint is a pure state machine: network and timer interactions are
//! appended as [`Action`]s to a buffer the simulator passes in and then
//! interprets, and timers use generation counters so a rearm invalidates
//! stale firings.

use dart_packet::{Nanos, SeqNum, TcpFlags};
use std::collections::BTreeMap;

/// A simulated TCP segment (no addresses — the connection supplies those).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimPacket {
    /// Wire sequence number.
    pub seq: SeqNum,
    /// Wire acknowledgment number (valid when the ACK flag is set).
    pub ack: SeqNum,
    /// Flags.
    pub flags: TcpFlags,
    /// Payload bytes.
    pub len: u32,
    /// RFC 7323 timestamp option; endpoints leave this `None` and the
    /// simulator stamps it at transmit time for clock-enabled connections.
    pub tsopt: Option<(u32, u32)>,
}

/// What the endpoint asks the simulator to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Transmit a segment now.
    Send(SimPacket),
    /// (Re)arm the retransmission timer `after` nanoseconds from now with
    /// generation `gen`; earlier generations are stale.
    ArmRto {
        /// Relative delay.
        after: Nanos,
        /// Generation tag.
        gen: u64,
    },
    /// Arm the delayed-ACK timer.
    ArmDelack {
        /// Relative delay.
        after: Nanos,
        /// Generation tag.
        gen: u64,
    },
}

/// Endpoint tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EndpointCfg {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window in segments.
    pub init_cwnd_segs: u32,
    /// Receive/flow-control window cap in segments.
    pub rwnd_segs: u32,
    /// Delayed-ACK timeout.
    pub delack_timeout: Nanos,
    /// ACK every n-th in-order segment immediately.
    pub delack_every: u32,
    /// Initial retransmission timeout (scenarios set ≈ max(200 ms, 3·RTT)).
    pub rto_initial: Nanos,
    /// Give up after this many consecutive timeouts.
    pub max_retries: u32,
}

impl Default for EndpointCfg {
    fn default() -> Self {
        EndpointCfg {
            mss: 1460,
            init_cwnd_segs: 10,
            rwnd_segs: 64,
            delack_timeout: 40 * dart_packet::MILLISECOND,
            delack_every: 2,
            rto_initial: 200 * dart_packet::MILLISECOND,
            max_retries: 5,
        }
    }
}

/// One application-level send: once `after_received` payload bytes have
/// arrived from the peer, enqueue `bytes` for transmission. This scripts
/// request/response exchanges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppSend {
    /// Cumulative received-byte trigger.
    pub after_received: u64,
    /// Bytes to enqueue.
    pub bytes: u64,
}

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Not yet opened.
    Closed,
    /// SYN sent, awaiting SYN-ACK (client).
    SynSent,
    /// SYN received, SYN-ACK sent (server).
    SynRcvd,
    /// Data transfer.
    Established,
    /// FIN sent, draining.
    Finishing,
    /// Fully closed.
    Done,
    /// Gave up after repeated timeouts.
    Aborted,
}

/// The endpoint.
#[derive(Clone, Debug)]
pub struct Endpoint {
    cfg: EndpointCfg,
    /// Our initial sequence number (the SYN's).
    iss: u32,
    peer_iss: Option<u32>,
    /// Connection state.
    pub state: ConnState,

    // --- send side (payload byte offsets; the SYN occupies "offset -1") ---
    snd_una: u64,
    snd_nxt: u64,
    committed: u64,
    outstanding: BTreeMap<u64, u32>,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    retries: u32,
    rto_backoff: u32,
    rto_gen: u64,
    rto_armed: bool,
    script: Vec<AppSend>,
    script_idx: usize,
    close_after_recv: Option<u64>,
    want_close: bool,
    fin_sent: bool,
    fin_acked: bool,

    // --- receive side ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u32>,
    peer_fin_at: Option<u64>,
    peer_fin_consumed: bool,
    segs_unacked: u32,
    delack_gen: u64,
    delack_armed: bool,

    /// Silent cut-off: once this many payload bytes have been received the
    /// endpoint goes dark — no ACKs, no data, no FIN (§3.2: "the receiver
    /// might just cut off the TCP session, never sending an ACK"). Strands
    /// the peer's in-flight records in any monitor on the path.
    cutoff_after_recv: Option<u64>,

    // --- stats ---
    /// Data segments retransmitted (timeout + fast retransmit).
    pub retransmits: u64,
    /// Duplicate ACKs sent.
    pub dup_acks_sent: u64,
}

impl Endpoint {
    /// Build an endpoint. `script` lists application sends;
    /// `close_after_recv` makes the endpoint initiate FIN once its script is
    /// exhausted and that many bytes have arrived (`Some(0)` = close as soon
    /// as everything we queued is delivered; `None` = never initiate close,
    /// follow the peer's FIN).
    pub fn new(
        cfg: EndpointCfg,
        iss: u32,
        script: Vec<AppSend>,
        close_after_recv: Option<u64>,
    ) -> Endpoint {
        let cwnd = (cfg.init_cwnd_segs * cfg.mss) as f64;
        Endpoint {
            cfg,
            iss,
            peer_iss: None,
            state: ConnState::Closed,
            snd_una: 0,
            snd_nxt: 0,
            committed: 0,
            outstanding: BTreeMap::new(),
            cwnd,
            ssthresh: f64::MAX,
            dup_acks: 0,
            retries: 0,
            rto_backoff: 0,
            rto_gen: 0,
            rto_armed: false,
            script,
            script_idx: 0,
            close_after_recv,
            want_close: false,
            fin_sent: false,
            fin_acked: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin_at: None,
            peer_fin_consumed: false,
            segs_unacked: 0,
            delack_gen: 0,
            delack_armed: false,
            cutoff_after_recv: None,
            retransmits: 0,
            dup_acks_sent: 0,
        }
    }

    /// Arrange a silent cut-off after `bytes` of received payload.
    pub fn set_cutoff_after_recv(&mut self, bytes: u64) {
        self.cutoff_after_recv = Some(bytes);
    }

    /// Bytes of payload the peer has delivered in order.
    pub fn received(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes acknowledged by the peer.
    pub fn acked(&self) -> u64 {
        self.snd_una
    }

    /// True when the connection can make no further progress.
    pub fn finished(&self) -> bool {
        matches!(self.state, ConnState::Done | ConnState::Aborted)
    }

    // --- wire <-> offset conversion -------------------------------------

    fn wire_seq(&self, off: u64) -> SeqNum {
        SeqNum(self.iss.wrapping_add(1).wrapping_add(off as u32))
    }

    /// The ACK number to send; zero while the peer's SYN is unseen and
    /// there is nothing to acknowledge.
    fn wire_ack(&self) -> SeqNum {
        let Some(p) = self.peer_iss else {
            return SeqNum::ZERO;
        };
        let fin_extra = u64::from(self.peer_fin_consumed);
        SeqNum(
            p.wrapping_add(1)
                .wrapping_add((self.rcv_nxt + fin_extra) as u32),
        )
    }

    fn ack_to_offset(&self, ack: SeqNum) -> u64 {
        ack.raw().wrapping_sub(self.iss.wrapping_add(1)) as u64
    }

    fn seq_to_offset(peer_iss: u32, seq: SeqNum) -> u64 {
        seq.raw().wrapping_sub(peer_iss.wrapping_add(1)) as u64
    }

    // --- opening ---------------------------------------------------------

    /// Client-side open: emit the SYN. Like every event handler here, it
    /// appends its actions to `acts`.
    pub fn open(&mut self, acts: &mut Vec<Action>) {
        assert_eq!(self.state, ConnState::Closed);
        self.state = ConnState::SynSent;
        acts.push(Action::Send(SimPacket {
            tsopt: None,
            seq: SeqNum(self.iss),
            ack: SeqNum::ZERO,
            flags: TcpFlags::SYN,
            len: 0,
        }));
        acts.push(self.arm_rto());
    }

    // --- timers ----------------------------------------------------------

    fn arm_rto(&mut self) -> Action {
        self.rto_gen += 1;
        self.rto_armed = true;
        Action::ArmRto {
            after: self.cfg.rto_initial << self.rto_backoff.min(6),
            gen: self.rto_gen,
        }
    }

    fn cancel_rto(&mut self) {
        self.rto_gen += 1;
        self.rto_armed = false;
    }

    /// Retransmission timer fired.
    pub fn on_rto(&mut self, gen: u64, acts: &mut Vec<Action>) {
        if gen != self.rto_gen || !self.rto_armed || self.finished() {
            return;
        }
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.state = ConnState::Aborted;
            return;
        }
        self.rto_backoff += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        match self.state {
            ConnState::SynSent => acts.push(Action::Send(SimPacket {
                tsopt: None,
                seq: SeqNum(self.iss),
                ack: SeqNum::ZERO,
                flags: TcpFlags::SYN,
                len: 0,
            })),
            ConnState::SynRcvd => acts.push(Action::Send(SimPacket {
                tsopt: None,
                seq: SeqNum(self.iss),
                ack: self.wire_ack(),
                flags: TcpFlags::SYN | TcpFlags::ACK,
                len: 0,
            })),
            _ => {
                if let Some((&off, &len)) = self.outstanding.iter().next() {
                    self.retransmits += 1;
                    acts.push(Action::Send(self.data_segment(off, len)));
                } else if self.fin_sent && !self.fin_acked {
                    acts.push(Action::Send(self.fin_segment()));
                }
            }
        }
        acts.push(self.arm_rto());
    }

    /// Delayed-ACK timer fired.
    pub fn on_delack(&mut self, gen: u64, acts: &mut Vec<Action>) {
        if gen != self.delack_gen || !self.delack_armed || self.finished() {
            return;
        }
        self.delack_armed = false;
        self.segs_unacked = 0;
        acts.push(Action::Send(self.pure_ack()));
    }

    // --- segment construction --------------------------------------------

    fn data_segment(&self, off: u64, len: u32) -> SimPacket {
        SimPacket {
            tsopt: None,
            seq: self.wire_seq(off),
            ack: self.wire_ack(),
            flags: if self.peer_iss.is_some() {
                TcpFlags::ACK | TcpFlags::PSH
            } else {
                TcpFlags::PSH
            },
            len,
        }
    }

    fn fin_segment(&self) -> SimPacket {
        SimPacket {
            tsopt: None,
            seq: self.wire_seq(self.committed),
            ack: self.wire_ack(),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            len: 0,
        }
    }

    fn pure_ack(&self) -> SimPacket {
        SimPacket {
            tsopt: None,
            seq: self.wire_seq(self.snd_nxt),
            ack: self.wire_ack(),
            flags: TcpFlags::ACK,
            len: 0,
        }
    }

    /// A keep-alive probe: a pure ACK re-asserting the current edge.
    pub fn keepalive(&self) -> Option<SimPacket> {
        if self.peer_iss.is_some() && !self.finished() {
            Some(self.pure_ack())
        } else {
            None
        }
    }

    // --- application script ----------------------------------------------

    fn advance_script(&mut self) {
        while let Some(s) = self.script.get(self.script_idx) {
            if self.rcv_nxt >= s.after_received
                && (self.state == ConnState::Established || self.state == ConnState::SynRcvd)
            {
                self.committed += s.bytes;
                self.script_idx += 1;
            } else {
                break;
            }
        }
        if self.script_idx >= self.script.len() {
            if let Some(need) = self.close_after_recv {
                if self.rcv_nxt >= need {
                    self.want_close = true;
                }
            }
            // Follow the peer's close once everything is delivered.
            if self.peer_fin_consumed {
                self.want_close = true;
            }
        }
    }

    fn effective_window(&self) -> u64 {
        (self.cwnd.min((self.cfg.rwnd_segs * self.cfg.mss) as f64)) as u64
    }

    /// Transmit what the window admits; true when anything was sent.
    fn try_send(&mut self, acts: &mut Vec<Action>) -> bool {
        if !matches!(self.state, ConnState::Established | ConnState::Finishing) {
            return false;
        }
        let mut sent_any = false;
        while self.snd_nxt < self.committed
            && self.snd_nxt.saturating_sub(self.snd_una) < self.effective_window()
        {
            let len = (self.committed - self.snd_nxt).min(self.cfg.mss as u64) as u32;
            let pkt = self.data_segment(self.snd_nxt, len);
            self.outstanding.insert(self.snd_nxt, len);
            self.snd_nxt += len as u64;
            acts.push(Action::Send(pkt));
            sent_any = true;
        }
        if self.want_close && !self.fin_sent && self.snd_nxt == self.committed {
            self.fin_sent = true;
            self.state = ConnState::Finishing;
            acts.push(Action::Send(self.fin_segment()));
            sent_any = true;
        }
        if sent_any {
            // Data carries our ACK: any pending delayed ACK is satisfied.
            if self.delack_armed {
                self.delack_armed = false;
                self.delack_gen += 1;
                self.segs_unacked = 0;
            }
            if !self.rto_armed {
                acts.push(self.arm_rto());
            }
        }
        sent_any
    }

    // --- segment arrival ---------------------------------------------------

    /// Process an arriving segment.
    pub fn on_segment(&mut self, pkt: &SimPacket, acts: &mut Vec<Action>) {
        if self.finished() {
            return;
        }
        if let Some(cut) = self.cutoff_after_recv {
            if self.rcv_nxt >= cut {
                // Gone dark: swallow the segment, answer nothing.
                self.state = ConnState::Aborted;
                return;
            }
        }

        // SYN handling.
        if pkt.flags.is_syn() {
            if pkt.flags.is_ack() {
                // SYN-ACK (we are the client).
                if self.state == ConnState::SynSent {
                    self.peer_iss = Some(pkt.seq.raw());
                    self.state = ConnState::Established;
                    self.retries = 0;
                    self.rto_backoff = 0;
                    self.cancel_rto();
                    acts.push(Action::Send(self.pure_ack()));
                    self.advance_script();
                    self.try_send(acts);
                }
            } else {
                // Bare SYN (we are the server).
                if self.state == ConnState::Closed || self.state == ConnState::SynRcvd {
                    self.peer_iss = Some(pkt.seq.raw());
                    self.state = ConnState::SynRcvd;
                    acts.push(Action::Send(SimPacket {
                        tsopt: None,
                        seq: SeqNum(self.iss),
                        ack: self.wire_ack(),
                        flags: TcpFlags::SYN | TcpFlags::ACK,
                        len: 0,
                    }));
                    acts.push(self.arm_rto());
                }
            }
            return;
        }

        let Some(peer_iss) = self.peer_iss else {
            // Data/ACK before any SYN: ignore (stray traffic).
            return;
        };

        // ACK processing.
        if pkt.flags.is_ack() {
            if self.state == ConnState::SynRcvd {
                self.state = ConnState::Established;
                self.retries = 0;
                self.rto_backoff = 0;
                self.cancel_rto();
                self.advance_script();
            }
            let ack_off = self.ack_to_offset(pkt.ack);
            let fin_extra = u64::from(self.fin_sent);
            if ack_off > self.snd_una && ack_off <= self.snd_nxt + fin_extra {
                // New data acknowledged.
                let newly = ack_off - self.snd_una;
                self.snd_una = ack_off.min(self.snd_nxt);
                self.dup_acks = 0;
                self.retries = 0;
                self.rto_backoff = 0;
                while let Some(first) = self.outstanding.first_entry() {
                    if *first.key() >= ack_off {
                        break;
                    }
                    first.remove();
                }
                // Congestion control.
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly.min(self.cfg.mss as u64) as f64; // slow start
                } else {
                    self.cwnd += (self.cfg.mss as f64) * (self.cfg.mss as f64) / self.cwnd;
                }
                if self.fin_sent && ack_off > self.committed {
                    self.fin_acked = true;
                }
                if self.outstanding.is_empty() && (!self.fin_sent || self.fin_acked) {
                    self.cancel_rto();
                } else {
                    acts.push(self.arm_rto());
                }
                // The window just opened: transmit anything now admissible.
                self.try_send(acts);
            } else if ack_off == self.snd_una
                && pkt.len == 0
                && !pkt.flags.is_fin()
                && !self.outstanding.is_empty()
            {
                // Duplicate ACK.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    if let Some((&off, &len)) = self.outstanding.iter().next() {
                        self.retransmits += 1;
                        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
                        self.cwnd = self.ssthresh;
                        acts.push(Action::Send(self.data_segment(off, len)));
                        acts.push(self.arm_rto());
                    }
                }
            }
        }

        // Data processing.
        if pkt.len > 0 {
            let seq_off = Self::seq_to_offset(peer_iss, pkt.seq);
            let end = seq_off + pkt.len as u64;
            if seq_off == self.rcv_nxt {
                self.rcv_nxt = end;
                // Merge any now-contiguous out-of-order segments.
                while let Some((&o, &l)) = self.ooo.iter().next() {
                    if o <= self.rcv_nxt {
                        self.ooo.remove(&o);
                        self.rcv_nxt = self.rcv_nxt.max(o + l as u64);
                    } else {
                        break;
                    }
                }
                // A segment that fills a hole must be ACKed immediately
                // (RFC 5681) so the sender exits fast recovery.
                let filled_hole = self.rcv_nxt > end;
                self.advance_script();
                self.segs_unacked += 1;
                let fin_ready = self.peer_fin_at == Some(self.rcv_nxt);
                if fin_ready {
                    self.consume_fin();
                }
                // Try to send (response data piggybacks our ACK).
                let sent_data = self.try_send(acts);
                if fin_ready || filled_hole || self.segs_unacked >= self.cfg.delack_every {
                    self.segs_unacked = 0;
                    if self.delack_armed {
                        self.delack_armed = false;
                        self.delack_gen += 1;
                    }
                    if !sent_data {
                        acts.push(Action::Send(self.pure_ack()));
                    }
                } else if !sent_data && !self.delack_armed {
                    self.delack_armed = true;
                    self.delack_gen += 1;
                    acts.push(Action::ArmDelack {
                        after: self.cfg.delack_timeout,
                        gen: self.delack_gen,
                    });
                }
            } else if seq_off > self.rcv_nxt {
                // Out of order: buffer and emit a duplicate ACK.
                self.ooo.insert(seq_off, pkt.len);
                self.dup_acks_sent += 1;
                acts.push(Action::Send(self.pure_ack()));
            } else {
                // Entirely old bytes (spurious retransmission): re-ACK.
                self.dup_acks_sent += 1;
                acts.push(Action::Send(self.pure_ack()));
            }
        } else if pkt.flags.is_fin() {
            // FIN with no data.
            let fin_off = Self::seq_to_offset(peer_iss, pkt.seq);
            self.peer_fin_at = Some(fin_off);
            if fin_off == self.rcv_nxt && !self.peer_fin_consumed {
                self.consume_fin();
                self.advance_script();
                if !self.try_send(acts) {
                    acts.push(Action::Send(self.pure_ack()));
                }
            } else if fin_off < self.rcv_nxt || self.peer_fin_consumed {
                acts.push(Action::Send(self.pure_ack()));
            }
        } else if pkt.flags.is_fin() && pkt.len > 0 {
            // FIN piggybacked on data is handled by the data path above;
            // record the FIN position for when data completes.
            let fin_off = Self::seq_to_offset(peer_iss, pkt.seq) + pkt.len as u64;
            self.peer_fin_at = Some(fin_off);
        }

        // Completion check.
        if self.fin_sent && self.fin_acked && (self.peer_fin_consumed || self.peer_fin_at.is_none())
        {
            // We closed; if the peer also closed (or never will), we're done.
            if self.peer_fin_consumed || self.close_after_recv.is_some() {
                self.state = ConnState::Done;
            }
        }
    }

    fn consume_fin(&mut self) {
        self.peer_fin_consumed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The actions one endpoint call appends.
    fn actions(call: impl FnOnce(&mut Vec<Action>)) -> Vec<Action> {
        let mut acts = Vec::new();
        call(&mut acts);
        acts
    }

    impl Endpoint {
        /// The actions this endpoint answers `pkt` with.
        fn answer(&mut self, pkt: SimPacket) -> Vec<Action> {
            actions(|a| self.on_segment(&pkt, a))
        }
    }

    /// Drive two endpoints against each other with a perfect, zero-delay
    /// network; returns all segments exchanged (client's first).
    fn run_loopback(
        mut client: Endpoint,
        mut server: Endpoint,
        max_steps: usize,
    ) -> (Endpoint, Endpoint, Vec<(bool, SimPacket)>) {
        let mut wire: std::collections::VecDeque<(bool, SimPacket)> = Default::default();
        let mut log = Vec::new();
        // Pending delayed-ACK timers, fired when the wire drains (the
        // loopback harness has no clock).
        let mut delacks: Vec<(bool, u64)> = Vec::new();
        let handle = |acts: Vec<Action>,
                      from_client: bool,
                      wire: &mut std::collections::VecDeque<(bool, SimPacket)>,
                      delacks: &mut Vec<(bool, u64)>| {
            for a in acts {
                match a {
                    Action::Send(p) => wire.push_back((from_client, p)),
                    Action::ArmDelack { gen, .. } => delacks.push((from_client, gen)),
                    Action::ArmRto { .. } => {}
                }
            }
        };
        handle(actions(|a| client.open(a)), true, &mut wire, &mut delacks);
        let mut steps = 0;
        loop {
            let Some((from_client, pkt)) = wire.pop_front() else {
                // Wire idle: fire the oldest pending delayed ACK, if any.
                let Some((side, gen)) = delacks.pop() else {
                    break;
                };
                let ep = if side { &mut client } else { &mut server };
                let acts = actions(|a| ep.on_delack(gen, a));
                handle(acts, side, &mut wire, &mut delacks);
                continue;
            };
            log.push((from_client, pkt));
            let dst = if from_client {
                &mut server
            } else {
                &mut client
            };
            let acts = actions(|a| dst.on_segment(&pkt, a));
            handle(acts, !from_client, &mut wire, &mut delacks);
            steps += 1;
            if steps > max_steps {
                panic!("loopback did not converge");
            }
        }
        (client, server, log)
    }

    fn client_server(req: u64, resp: u64) -> (Endpoint, Endpoint) {
        let cfg = EndpointCfg::default();
        let client = Endpoint::new(
            cfg,
            1000,
            vec![AppSend {
                after_received: 0,
                bytes: req,
            }],
            Some(resp),
        );
        let server = Endpoint::new(
            cfg,
            99_000,
            vec![AppSend {
                after_received: req,
                bytes: resp,
            }],
            None,
        );
        (client, server)
    }

    #[test]
    fn request_response_completes() {
        let (c, s) = client_server(500, 10_000);
        let (c, s, log) = run_loopback(c, s, 1000);
        assert_eq!(c.state, ConnState::Done);
        assert!(matches!(s.state, ConnState::Done | ConnState::Finishing));
        assert_eq!(s.received(), 500);
        assert_eq!(c.received(), 10_000);
        // Handshake appears exactly once.
        let syns = log.iter().filter(|(_, p)| p.flags.is_syn()).count();
        assert_eq!(syns, 2); // SYN + SYN-ACK
        assert_eq!(c.retransmits + s.retransmits, 0);
    }

    #[test]
    fn large_transfer_segments_at_mss() {
        let (c, s) = client_server(100, 100_000);
        let (_, _, log) = run_loopback(c, s, 10_000);
        let data_segments: Vec<u32> = log
            .iter()
            .filter(|(fc, p)| !fc && p.len > 0)
            .map(|(_, p)| p.len)
            .collect();
        assert!(data_segments.len() >= 69); // 100000 / 1460 ≈ 68.5
        assert!(data_segments.iter().all(|&l| l <= 1460));
        let total: u64 = data_segments.iter().map(|&l| l as u64).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn cumulative_acks_thin_the_ack_stream() {
        let (c, s) = client_server(100, 50_000);
        let (_, _, log) = run_loopback(c, s, 10_000);
        let data_from_server = log.iter().filter(|(fc, p)| !fc && p.len > 0).count();
        let acks_from_client = log
            .iter()
            .filter(|(fc, p)| *fc && p.len == 0 && p.flags.is_ack() && !p.flags.is_syn())
            .count();
        // Delayed ACKs: roughly one ACK per two data segments.
        assert!(
            acks_from_client < data_from_server,
            "acks {acks_from_client} vs data {data_from_server}"
        );
    }

    #[test]
    fn out_of_order_triggers_dup_ack_and_buffering() {
        let cfg = EndpointCfg::default();
        let mut ep = Endpoint::new(cfg, 5, vec![], None);
        // Fake the peer handshake.
        ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(100),
            ack: SeqNum::ZERO,
            flags: TcpFlags::SYN,
            len: 0,
        });
        assert_eq!(ep.state, ConnState::SynRcvd);
        // Deliver segment 2 before segment 1: dup ACK expected.
        let acts = ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(101 + 1000),
            ack: SeqNum(6),
            flags: TcpFlags::ACK,
            len: 1000,
        });
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send(p) if p.len == 0 && p.ack == SeqNum(101)
        )));
        assert_eq!(ep.dup_acks_sent, 1);
        // Now the missing first segment: cumulative ACK jumps to 2101.
        let acts = ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(101),
            ack: SeqNum(6),
            flags: TcpFlags::ACK,
            len: 1000,
        });
        assert_eq!(ep.received(), 2000);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Send(p) if p.ack == SeqNum(2101)
        )));
    }

    #[test]
    fn rto_retransmits_and_backs_off() {
        let cfg = EndpointCfg::default();
        let mut client = Endpoint::new(
            cfg,
            7,
            vec![AppSend {
                after_received: 0,
                bytes: 100,
            }],
            Some(0),
        );
        let acts = actions(|a| client.open(a));
        let Action::ArmRto { gen, after } = acts[1] else {
            panic!("expected rto arm");
        };
        assert_eq!(after, cfg.rto_initial);
        // Fire: SYN retransmitted with doubled timeout.
        let acts = actions(|a| client.on_rto(gen, a));
        assert!(matches!(acts[0], Action::Send(p) if p.flags.is_syn()));
        let Action::ArmRto { after: a2, .. } = acts[1] else {
            panic!();
        };
        assert_eq!(a2, cfg.rto_initial * 2);
    }

    #[test]
    fn retry_exhaustion_aborts() {
        let cfg = EndpointCfg {
            max_retries: 2,
            ..EndpointCfg::default()
        };
        let mut client = Endpoint::new(cfg, 7, vec![], Some(0));
        let mut acts = actions(|a| client.open(a));
        for _ in 0..3 {
            let gen = acts
                .iter()
                .find_map(|a| match a {
                    Action::ArmRto { gen, .. } => Some(*gen),
                    _ => None,
                })
                .expect("rto armed");
            acts = actions(|a| client.on_rto(gen, a));
        }
        assert_eq!(client.state, ConnState::Aborted);
    }

    #[test]
    fn stale_timer_generations_ignored() {
        let cfg = EndpointCfg::default();
        let mut client = Endpoint::new(cfg, 7, vec![], Some(0));
        let acts = actions(|a| client.open(a));
        let Action::ArmRto { gen, .. } = acts[1] else {
            panic!();
        };
        // A rearm bumps the generation; the old timer must be a no-op.
        let _ = actions(|a| client.on_rto(gen, a)); // legitimate: produces new gen
        assert!(actions(|a| client.on_rto(gen, a)).is_empty());
    }

    #[test]
    fn delack_timer_flushes_pending_ack() {
        let cfg = EndpointCfg::default();
        let mut ep = Endpoint::new(cfg, 5, vec![], None);
        ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(100),
            ack: SeqNum::ZERO,
            flags: TcpFlags::SYN,
            len: 0,
        });
        // One in-order segment: delayed-ACK armed rather than immediate ACK.
        let acts = ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(101),
            ack: SeqNum(6),
            flags: TcpFlags::ACK,
            len: 500,
        });
        let gen = acts
            .iter()
            .find_map(|a| match a {
                Action::ArmDelack { gen, .. } => Some(*gen),
                _ => None,
            })
            .expect("delack armed");
        assert!(!acts.iter().any(|a| matches!(a, Action::Send(_))));
        let acts = actions(|a| ep.on_delack(gen, a));
        assert!(matches!(acts[0], Action::Send(p) if p.ack == SeqNum(601)));
    }

    #[test]
    fn keepalive_is_pure_ack() {
        let (c, s) = client_server(100, 100);
        let (c, _, _) = run_loopback(c, s, 1000);
        // Connection done: no keepalive.
        assert!(c.keepalive().is_none() || !c.finished());
        let cfg = EndpointCfg::default();
        let mut ep = Endpoint::new(cfg, 5, vec![], None);
        assert!(ep.keepalive().is_none(), "no keepalive before handshake");
        ep.answer(SimPacket {
            tsopt: None,
            seq: SeqNum(100),
            ack: SeqNum::ZERO,
            flags: TcpFlags::SYN,
            len: 0,
        });
        let ka = ep.keepalive().unwrap();
        assert!(ka.flags.is_ack());
        assert_eq!(ka.len, 0);
    }

    #[test]
    fn multi_round_request_response() {
        let cfg = EndpointCfg::default();
        let rounds = 3u64;
        let client = Endpoint::new(
            cfg,
            10,
            (0..rounds)
                .map(|i| AppSend {
                    after_received: i * 5000,
                    bytes: 300,
                })
                .collect(),
            Some(rounds * 5000),
        );
        let server = Endpoint::new(
            cfg,
            20,
            (0..rounds)
                .map(|i| AppSend {
                    after_received: (i + 1) * 300,
                    bytes: 5000,
                })
                .collect(),
            None,
        );
        let (c, s, _) = run_loopback(client, server, 10_000);
        assert_eq!(c.received(), rounds * 5000);
        assert_eq!(s.received(), rounds * 300);
        assert_eq!(c.state, ConnState::Done);
    }
}

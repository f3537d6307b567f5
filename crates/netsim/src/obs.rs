//! The columnar observation pipeline.
//!
//! The paper's central observation is that *connection churn dwarfs node
//! churn*: a measurement log holds orders of magnitude more events than the
//! network holds peers. Materialising every event as a tagged
//! [`ObservedEvent`](crate::ObservedEvent) enum — with a full
//! [`IdentifyInfo`] clone per identify push — made per-event heap traffic the
//! scaling bottleneck. This module replaces that representation with three
//! pieces:
//!
//! * [`ObservationSink`] — the trait the engine emits observations into.
//!   The engine never builds `ObservedEvent` values; it calls one sink
//!   method per observation with plain ids.
//! * [`IdentifyRegistry`] — interns every distinct [`IdentifyInfo`],
//!   [`Multiaddr`] and [`PeerId`] once and hands out dense `u32` ids. An
//!   identify push records a 4-byte payload id instead of cloning the
//!   payload (agent string, protocol set, address list).
//! * [`ObservationTable`] — the struct-of-arrays backing store: parallel
//!   `at` / `kind` / `peer_slot` / `conn` / `payload` columns, 25 bytes per
//!   event, no per-event heap allocation.
//!
//! [`ObserverLog`](crate::ObserverLog) wraps a table plus a shared registry
//! and keeps yielding the classic `ObservedEvent` shape for analyses that do
//! not need hardware-speed access; hot consumers (the measurement monitors,
//! the scale harness) read the columns directly.

use p2pmodel::{CloseReason, ConnectionId, Direction, IdentifyInfo, Multiaddr, PeerId};
use simclock::SimTime;
use std::collections::HashMap;

/// The kind discriminant of one observation row (one byte per event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ObservationKind {
    /// An inbound connection was opened; `payload` is the remote address id.
    OpenedInbound = 0,
    /// An outbound connection was opened; `payload` is the remote address id.
    OpenedOutbound = 1,
    /// A connection was closed; `payload` encodes the [`CloseReason`].
    Closed = 2,
    /// An identify payload was received; `payload` is the identify id.
    Identify = 3,
    /// The peer was discovered without a connection; `payload` is the
    /// address id.
    Discovered = 4,
}

impl ObservationKind {
    /// The direction of an open event, if this is one.
    pub fn direction(self) -> Option<Direction> {
        match self {
            ObservationKind::OpenedInbound => Some(Direction::Inbound),
            ObservationKind::OpenedOutbound => Some(Direction::Outbound),
            _ => None,
        }
    }

    /// Decodes a discriminant byte written by `kind as u8` — the inverse the
    /// archive reader needs. Returns `None` for bytes no kind maps to.
    pub fn from_u8(byte: u8) -> Option<ObservationKind> {
        match byte {
            0 => Some(ObservationKind::OpenedInbound),
            1 => Some(ObservationKind::OpenedOutbound),
            2 => Some(ObservationKind::Closed),
            3 => Some(ObservationKind::Identify),
            4 => Some(ObservationKind::Discovered),
            _ => None,
        }
    }
}

/// Narrows a length to the dense `u32` id space the columnar pipeline uses.
///
/// Registry ids and table row indices are deliberately 4 bytes — that is
/// where the 25 B/event figure comes from — so the pipeline caps out at
/// 2^32 - 1 entries per id space. The 10M-peer full-protocol campaign logs
/// ~108.7M events, two orders of magnitude below the cap, but a silent
/// `as u32` wrap past 4.29B entries would corrupt every id after it; this
/// guard turns that into a loud panic naming the exhausted space.
fn dense_id(len: usize, space: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!("{space} capacity exceeded: {len} entries do not fit the dense u32 id space (max {})", u32::MAX)
    })
}

/// Packs a [`CloseReason`] into the 4-byte payload column.
pub fn close_reason_to_payload(reason: CloseReason) -> u32 {
    match reason {
        CloseReason::TrimmedLocal => 0,
        CloseReason::TrimmedRemote => 1,
        CloseReason::PeerLeft => 2,
        CloseReason::MeasurementEnd => 3,
    }
}

/// Unpacks a payload written by [`close_reason_to_payload`].
///
/// # Panics
///
/// Panics on a payload value no close reason maps to; the table only ever
/// stores values produced by the packing function.
pub fn close_reason_from_payload(payload: u32) -> CloseReason {
    match payload {
        0 => CloseReason::TrimmedLocal,
        1 => CloseReason::TrimmedRemote,
        2 => CloseReason::PeerLeft,
        3 => CloseReason::MeasurementEnd,
        other => panic!("invalid close-reason payload {other}"),
    }
}

/// The sink the simulation engine emits observations into.
///
/// One implementation is [`ObservationTable`] (the columnar store every
/// [`crate::Network::run`] uses); custom sinks — counters, stream writers —
/// can be plugged in through [`crate::Network::run_with_sinks`] to measure
/// pure engine throughput or to stream events out without buffering them.
///
/// All ids refer to the run's [`IdentifyRegistry`]: `peer_slot` is the
/// registry slot of the remote peer, `addr_id` an interned multiaddress and
/// `payload_id` an interned identify payload.
pub trait ObservationSink {
    /// A connection to the peer in `peer_slot` was opened.
    fn connection_opened(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        direction: Direction,
        addr_id: u32,
    );

    /// A connection was closed.
    fn connection_closed(&mut self, at: SimTime, conn: ConnectionId, peer_slot: u32, reason: CloseReason);

    /// An identify payload (registry id `payload_id`) was received.
    fn identify_received(&mut self, at: SimTime, peer_slot: u32, payload_id: u32);

    /// The peer was discovered through routing gossip without a connection.
    fn peer_discovered(&mut self, at: SimTime, peer_slot: u32, addr_id: u32);
}

/// Interning store shared by every observer of one simulation run.
///
/// Each distinct [`PeerId`], [`Multiaddr`] and [`IdentifyInfo`] is stored
/// once; observations refer to it by a dense `u32` id. Interning the same
/// value twice returns the same id, and ids resolve back to the exact value
/// they were created from — see the round-trip property test in
/// `tests/columnar.rs`.
#[derive(Debug, Clone, Default)]
pub struct IdentifyRegistry {
    peers: Vec<PeerId>,
    peer_slots: HashMap<PeerId, u32>,
    addrs: Vec<Multiaddr>,
    addr_ids: HashMap<Multiaddr, u32>,
    infos: Vec<IdentifyInfo>,
    info_ids: HashMap<IdentifyInfo, u32>,
}

impl IdentifyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry pre-sized for a population of `peers` peers, each
    /// with (at most) one distinct address.
    pub fn with_capacity(peers: usize) -> Self {
        IdentifyRegistry {
            peers: Vec::with_capacity(peers),
            peer_slots: HashMap::with_capacity(peers),
            addrs: Vec::with_capacity(peers),
            addr_ids: HashMap::with_capacity(peers),
            ..Self::default()
        }
    }

    /// Rebuilds a registry from its interned value vectors, in id order —
    /// the archive reader's path. `peers[i]` gets slot `i`, `addrs[i]` id
    /// `i`, `infos[i]` id `i`, exactly as the original interning handed them
    /// out, so every id stored in an archived [`ObservationTable`] resolves
    /// to the same value it was created from.
    ///
    /// # Panics
    ///
    /// Panics if any vector contains a duplicate value: interning guarantees
    /// distinctness, so a duplicate means the dictionary data is not a
    /// registry image.
    pub fn from_parts(peers: Vec<PeerId>, addrs: Vec<Multiaddr>, infos: Vec<IdentifyInfo>) -> Self {
        let peer_slots: HashMap<PeerId, u32> = peers
            .iter()
            .enumerate()
            .map(|(slot, peer)| (*peer, dense_id(slot, "IdentifyRegistry peer-slot")))
            .collect();
        assert_eq!(peer_slots.len(), peers.len(), "duplicate peer in registry image");
        let addr_ids: HashMap<Multiaddr, u32> = addrs
            .iter()
            .enumerate()
            .map(|(id, addr)| (*addr, dense_id(id, "IdentifyRegistry address-id")))
            .collect();
        assert_eq!(addr_ids.len(), addrs.len(), "duplicate address in registry image");
        let info_ids: HashMap<IdentifyInfo, u32> = infos
            .iter()
            .enumerate()
            .map(|(id, info)| (info.clone(), dense_id(id, "IdentifyRegistry identify-id")))
            .collect();
        assert_eq!(info_ids.len(), infos.len(), "duplicate identify payload in registry image");
        IdentifyRegistry {
            peers,
            peer_slots,
            addrs,
            addr_ids,
            infos,
            info_ids,
        }
    }

    /// Registers a peer and returns its slot; registering the same peer
    /// again returns the existing slot.
    pub fn register_peer(&mut self, peer: PeerId) -> u32 {
        if let Some(&slot) = self.peer_slots.get(&peer) {
            return slot;
        }
        let slot = dense_id(self.peers.len(), "IdentifyRegistry peer-slot");
        self.peers.push(peer);
        self.peer_slots.insert(peer, slot);
        slot
    }

    /// Resolves a peer slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never handed out by this registry.
    pub fn peer(&self, slot: u32) -> PeerId {
        self.peers[slot as usize]
    }

    /// The slot of a registered peer, if any.
    pub fn slot_of(&self, peer: &PeerId) -> Option<u32> {
        self.peer_slots.get(peer).copied()
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Interns a multiaddress and returns its id.
    pub fn intern_addr(&mut self, addr: Multiaddr) -> u32 {
        if let Some(&id) = self.addr_ids.get(&addr) {
            return id;
        }
        let id = dense_id(self.addrs.len(), "IdentifyRegistry address-id");
        self.addrs.push(addr);
        self.addr_ids.insert(addr, id);
        id
    }

    /// Resolves an address id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never handed out by this registry.
    pub fn addr(&self, id: u32) -> Multiaddr {
        self.addrs[id as usize]
    }

    /// Number of distinct interned addresses.
    pub fn addr_count(&self) -> usize {
        self.addrs.len()
    }

    /// Interns an identify payload and returns its id. The payload is cloned
    /// only on first insertion; every later intern of an equal payload is a
    /// hash lookup.
    pub fn intern_identify(&mut self, info: &IdentifyInfo) -> u32 {
        if let Some(&id) = self.info_ids.get(info) {
            return id;
        }
        let id = dense_id(self.infos.len(), "IdentifyRegistry identify-id");
        self.infos.push(info.clone());
        self.info_ids.insert(info.clone(), id);
        id
    }

    /// Resolves an identify id.
    ///
    /// # Panics
    ///
    /// Panics if the id was never handed out by this registry.
    pub fn identify(&self, id: u32) -> &IdentifyInfo {
        &self.infos[id as usize]
    }

    /// Number of distinct interned identify payloads.
    pub fn identify_count(&self) -> usize {
        self.infos.len()
    }

    /// Approximate resident bytes of the registry (interned values plus the
    /// lookup indices). Part of the bytes-per-event accounting in the scale
    /// harness; see `docs/ARCHITECTURE.md`.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let peer_bytes = self.peers.len() * (size_of::<PeerId>() * 2 + size_of::<u32>());
        let addr_bytes = self.addrs.len() * (size_of::<Multiaddr>() * 2 + size_of::<u32>());
        let info_bytes: usize = self
            .infos
            .iter()
            .map(|info| 2 * (size_of::<IdentifyInfo>() + identify_heap_bytes(info)) + size_of::<u32>())
            .sum();
        peer_bytes + addr_bytes + info_bytes
    }
}

/// Approximate heap bytes owned by one [`IdentifyInfo`] (agent strings,
/// protocol-set nodes, address list). Used for the bytes-per-event accounting
/// of the enum representation, where every identify event carried a deep
/// clone of this payload.
pub fn identify_heap_bytes(info: &IdentifyInfo) -> usize {
    use std::mem::size_of;
    let agent_bytes = match &info.agent {
        p2pmodel::AgentVersion::GoIpfs { commit, version, .. } => {
            commit.as_deref().map_or(0, str::len)
                + version.pre.as_deref().map_or(0, str::len)
        }
        p2pmodel::AgentVersion::Other(s) => s.len(),
        p2pmodel::AgentVersion::Missing => 0,
    };
    // One string allocation plus ~3 words of BTreeSet node overhead per
    // protocol id — an estimate, but the same estimate for both sides of the
    // comparison.
    let protocol_bytes: usize = info
        .protocols
        .iter()
        .map(|p| p.as_str().len() + size_of::<String>() + 3 * size_of::<usize>())
        .sum();
    let addr_bytes = info.listen_addrs.capacity() * size_of::<Multiaddr>();
    agent_bytes + protocol_bytes + addr_bytes
}

/// The struct-of-arrays observation store: one row per observed event, split
/// into five parallel columns.
///
/// | column      | type           | meaning                                          |
/// |-------------|----------------|--------------------------------------------------|
/// | `at`        | `SimTime` (8B) | event timestamp                                  |
/// | `kind`      | `u8`           | [`ObservationKind`] discriminant                 |
/// | `peer_slot` | `u32`          | registry slot of the remote peer                 |
/// | `conn`      | `u64`          | connection id, or `NO_CONN` for non-conn events  |
/// | `payload`   | `u32`          | addr id / identify id / packed close reason      |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationTable {
    at: Vec<SimTime>,
    kind: Vec<ObservationKind>,
    peer_slot: Vec<u32>,
    conn: Vec<u64>,
    payload: Vec<u32>,
}

/// The `conn` column value of rows that do not concern a connection.
pub const NO_CONN: u64 = u64::MAX;

impl ObservationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves room for `additional` more events in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.at.reserve(additional);
        self.kind.reserve(additional);
        self.peer_slot.reserve(additional);
        self.conn.reserve(additional);
        self.payload.reserve(additional);
    }

    fn push_row(&mut self, at: SimTime, kind: ObservationKind, peer_slot: u32, conn: u64, payload: u32) {
        self.at.push(at);
        self.kind.push(kind);
        self.peer_slot.push(peer_slot);
        self.conn.push(conn);
        self.payload.push(payload);
    }

    /// Number of events in the table.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the table holds no events.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The timestamp column.
    pub fn ats(&self) -> &[SimTime] {
        &self.at
    }

    /// The kind column.
    pub fn kinds(&self) -> &[ObservationKind] {
        &self.kind
    }

    /// The peer-slot column.
    pub fn peer_slots(&self) -> &[u32] {
        &self.peer_slot
    }

    /// The connection-id column ([`NO_CONN`] for non-connection rows).
    pub fn conns(&self) -> &[u64] {
        &self.conn
    }

    /// The payload column.
    pub fn payloads(&self) -> &[u32] {
        &self.payload
    }

    /// Timestamp of row `i`.
    pub fn at(&self, i: usize) -> SimTime {
        self.at[i]
    }

    /// Kind of row `i`.
    pub fn kind_at(&self, i: usize) -> ObservationKind {
        self.kind[i]
    }

    /// Peer slot of row `i`.
    pub fn peer_slot_at(&self, i: usize) -> u32 {
        self.peer_slot[i]
    }

    /// Connection id of row `i` (`None` for non-connection rows).
    pub fn conn_at(&self, i: usize) -> Option<ConnectionId> {
        match self.conn[i] {
            NO_CONN => None,
            id => Some(ConnectionId(id)),
        }
    }

    /// Payload of row `i`.
    pub fn payload_at(&self, i: usize) -> u32 {
        self.payload[i]
    }

    /// Resident bytes of the column storage (capacity-based, the peak-RSS
    /// proxy the scale harness reports).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.at.capacity() * size_of::<SimTime>()
            + self.kind.capacity() * size_of::<ObservationKind>()
            + self.peer_slot.capacity() * size_of::<u32>()
            + self.conn.capacity() * size_of::<u64>()
            + self.payload.capacity() * size_of::<u32>()
    }

    /// Bytes of one row across all columns (the marginal cost of an event).
    pub const fn bytes_per_event() -> usize {
        use std::mem::size_of;
        size_of::<SimTime>()
            + size_of::<ObservationKind>()
            + size_of::<u32>()
            + size_of::<u64>()
            + size_of::<u32>()
    }

    /// Whether the `at` column is already non-decreasing.
    pub fn is_sorted_by_time(&self) -> bool {
        self.at.windows(2).all(|w| w[0] <= w[1])
    }

    /// Stable-sorts all columns by timestamp. The engine emits events in
    /// simulation order, which is already chronological, so the common case
    /// is a single O(n) sortedness check; manually built tables pay one
    /// index permutation.
    pub fn stable_sort_by_time(&mut self) {
        if self.is_sorted_by_time() {
            return;
        }
        let n = self.len();
        let _ = dense_id(n, "ObservationTable row-index");
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| self.at[i as usize]);
        // Apply the permutation in place by walking its cycles: each row is
        // written exactly once, the columns keep their allocations, and the
        // scratch space is the order vec plus one visited bit per row —
        // instead of five freshly collected column copies (which doubled
        // peak memory on the archive write path).
        let mut visited = vec![false; n];
        for start in 0..n {
            if visited[start] || order[start] as usize == start {
                visited[start] = true;
                continue;
            }
            let tmp = (
                self.at[start],
                self.kind[start],
                self.peer_slot[start],
                self.conn[start],
                self.payload[start],
            );
            let mut dst = start;
            loop {
                let src = order[dst] as usize;
                visited[dst] = true;
                if src == start {
                    self.at[dst] = tmp.0;
                    self.kind[dst] = tmp.1;
                    self.peer_slot[dst] = tmp.2;
                    self.conn[dst] = tmp.3;
                    self.payload[dst] = tmp.4;
                    break;
                }
                self.at[dst] = self.at[src];
                self.kind[dst] = self.kind[src];
                self.peer_slot[dst] = self.peer_slot[src];
                self.conn[dst] = self.conn[src];
                self.payload[dst] = self.payload[src];
                dst = src;
            }
        }
    }

    /// Reassembles a table from raw column vectors — the archive reader's
    /// path. The columns must be parallel (equal lengths) and are adopted
    /// as-is; pair with the column accessors ([`Self::ats`] & co.) on the
    /// write side.
    ///
    /// # Panics
    ///
    /// Panics if the column lengths disagree.
    pub fn from_columns(
        at: Vec<SimTime>,
        kind: Vec<ObservationKind>,
        peer_slot: Vec<u32>,
        conn: Vec<u64>,
        payload: Vec<u32>,
    ) -> Self {
        let n = at.len();
        assert!(
            kind.len() == n && peer_slot.len() == n && conn.len() == n && payload.len() == n,
            "observation columns must be parallel: at={n} kind={} peer_slot={} conn={} payload={}",
            kind.len(),
            peer_slot.len(),
            conn.len(),
            payload.len()
        );
        ObservationTable {
            at,
            kind,
            peer_slot,
            conn,
            payload,
        }
    }

    /// FNV-1a checksum over all columns — a cheap, order-sensitive
    /// fingerprint the scale harness uses to assert determinism across
    /// thread counts without materialising events.
    pub fn checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for i in 0..self.len() {
            for b in self.at[i].as_millis().to_le_bytes() {
                mix(b);
            }
            mix(self.kind[i] as u8);
            for b in self.peer_slot[i].to_le_bytes() {
                mix(b);
            }
            for b in self.conn[i].to_le_bytes() {
                mix(b);
            }
            for b in self.payload[i].to_le_bytes() {
                mix(b);
            }
        }
        hash
    }
}

impl ObservationSink for ObservationTable {
    fn connection_opened(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        direction: Direction,
        addr_id: u32,
    ) {
        let kind = match direction {
            Direction::Inbound => ObservationKind::OpenedInbound,
            Direction::Outbound => ObservationKind::OpenedOutbound,
        };
        self.push_row(at, kind, peer_slot, conn.0, addr_id);
    }

    fn connection_closed(&mut self, at: SimTime, conn: ConnectionId, peer_slot: u32, reason: CloseReason) {
        self.push_row(
            at,
            ObservationKind::Closed,
            peer_slot,
            conn.0,
            close_reason_to_payload(reason),
        );
    }

    fn identify_received(&mut self, at: SimTime, peer_slot: u32, payload_id: u32) {
        self.push_row(at, ObservationKind::Identify, peer_slot, NO_CONN, payload_id);
    }

    fn peer_discovered(&mut self, at: SimTime, peer_slot: u32, addr_id: u32) {
        self.push_row(at, ObservationKind::Discovered, peer_slot, NO_CONN, addr_id);
    }
}

/// A fan-out sink: forwards every observation to two child sinks.
///
/// This is how a streaming consumer runs *concurrently* with the classic
/// buffering pipeline in a single simulation: tee the engine's emissions into
/// an [`ObservationTable`] (for the batch `MeasurementDataset` path) and into
/// an incremental estimator (`measurement::stream`) at the same time, paying
/// for one engine run instead of two. Tees nest, so any fan-out degree is
/// expressible as `TeeSink<A, TeeSink<B, C>>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TeeSink<A, B> {
    /// The first child sink.
    pub first: A,
    /// The second child sink.
    pub second: B,
}

impl<A, B> TeeSink<A, B> {
    /// Creates a tee over two child sinks.
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// Consumes the tee and returns both child sinks.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: ObservationSink, B: ObservationSink> ObservationSink for TeeSink<A, B> {
    fn connection_opened(
        &mut self,
        at: SimTime,
        conn: ConnectionId,
        peer_slot: u32,
        direction: Direction,
        addr_id: u32,
    ) {
        self.first.connection_opened(at, conn, peer_slot, direction, addr_id);
        self.second.connection_opened(at, conn, peer_slot, direction, addr_id);
    }

    fn connection_closed(&mut self, at: SimTime, conn: ConnectionId, peer_slot: u32, reason: CloseReason) {
        self.first.connection_closed(at, conn, peer_slot, reason);
        self.second.connection_closed(at, conn, peer_slot, reason);
    }

    fn identify_received(&mut self, at: SimTime, peer_slot: u32, payload_id: u32) {
        self.first.identify_received(at, peer_slot, payload_id);
        self.second.identify_received(at, peer_slot, payload_id);
    }

    fn peer_discovered(&mut self, at: SimTime, peer_slot: u32, addr_id: u32) {
        self.first.peer_discovered(at, peer_slot, addr_id);
        self.second.peer_discovered(at, peer_slot, addr_id);
    }
}

/// A sink that only counts events — used by the scale harness to measure
/// pure engine throughput with zero observation-storage cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Connection-open events seen.
    pub opened: u64,
    /// Connection-close events seen.
    pub closed: u64,
    /// Identify events seen.
    pub identifies: u64,
    /// Gossip-discovery events seen.
    pub discovered: u64,
}

impl CountingSink {
    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.opened + self.closed + self.identifies + self.discovered
    }
}

impl ObservationSink for CountingSink {
    fn connection_opened(&mut self, _: SimTime, _: ConnectionId, _: u32, _: Direction, _: u32) {
        self.opened += 1;
    }

    fn connection_closed(&mut self, _: SimTime, _: ConnectionId, _: u32, _: CloseReason) {
        self.closed += 1;
    }

    fn identify_received(&mut self, _: SimTime, _: u32, _: u32) {
        self.identifies += 1;
    }

    fn peer_discovered(&mut self, _: SimTime, _: u32, _: u32) {
        self.discovered += 1;
    }
}

/// Stable global PID ↔ (shard, slot) mapping for partitioned simulations.
///
/// The cross-shard engine ([`crate::mailbox`]) partitions the global peer
/// index space `0..peers` into `shards` contiguous, balanced ranges: shard
/// sizes differ by at most one, with the remainder going to the first
/// shards (the same rule the scale harness's `shard_population` uses). The
/// mapping is a pure function of `(peers, shards)` — no allocation, no
/// lookup tables — so every shard, every worker thread and every epoch
/// agrees on who owns a peer, and merged [`ObservationTable`]s /
/// [`IdentifyRegistry`] slots stay canonical: the registry slot of a peer is
/// its *global* index, independent of the shard layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    peers: usize,
    shards: usize,
}

impl ShardMap {
    /// Creates a mapping of `peers` global indexes onto `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(peers: usize, shards: usize) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { peers, shards }
    }

    /// Total number of peers mapped.
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Peers owned by `shard`: `peers / shards`, plus one for the first
    /// `peers % shards` shards.
    pub fn count(&self, shard: usize) -> usize {
        let base = self.peers / self.shards;
        base + usize::from(shard < self.peers % self.shards)
    }

    /// First global index owned by `shard`.
    pub fn start(&self, shard: usize) -> usize {
        let base = self.peers / self.shards;
        let extra = self.peers % self.shards;
        shard * base + shard.min(extra)
    }

    /// The shard owning global index `global`.
    pub fn owner(&self, global: usize) -> usize {
        debug_assert!(global < self.peers);
        let base = self.peers / self.shards;
        let extra = self.peers % self.shards;
        let fat = extra * (base + 1);
        if global < fat {
            global / (base + 1)
        } else {
            extra + (global - fat) / base
        }
    }

    /// The owner shard's local slot of global index `global`.
    pub fn slot(&self, global: usize) -> usize {
        global - self.start(self.owner(global))
    }

    /// The global index of `(shard, slot)`.
    pub fn global(&self, shard: usize, slot: usize) -> usize {
        self.start(shard) + slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmodel::{AgentVersion, IpAddress, ProtocolSet, Transport};

    fn addr(n: u32) -> Multiaddr {
        Multiaddr::new(IpAddress::V4(n), Transport::Tcp, 4001)
    }

    fn info(version: &str) -> IdentifyInfo {
        IdentifyInfo::new(
            AgentVersion::parse(version),
            ProtocolSet::go_ipfs_dht_server(),
            Vec::new(),
        )
    }

    #[test]
    fn registry_interning_is_idempotent() {
        let mut reg = IdentifyRegistry::with_capacity(4);
        let p = PeerId::derived(7);
        let slot = reg.register_peer(p);
        assert_eq!(reg.register_peer(p), slot);
        assert_eq!(reg.peer(slot), p);
        assert_eq!(reg.slot_of(&p), Some(slot));
        assert_eq!(reg.peer_count(), 1);

        let a = reg.intern_addr(addr(1));
        assert_eq!(reg.intern_addr(addr(1)), a);
        assert_ne!(reg.intern_addr(addr(2)), a);
        assert_eq!(reg.addr(a), addr(1));
        assert_eq!(reg.addr_count(), 2);

        let i0 = reg.intern_identify(&info("go-ipfs/0.11.0/"));
        let i1 = reg.intern_identify(&info("go-ipfs/0.12.0/"));
        assert_eq!(reg.intern_identify(&info("go-ipfs/0.11.0/")), i0);
        assert_ne!(i0, i1);
        assert_eq!(reg.identify(i1), &info("go-ipfs/0.12.0/"));
        assert_eq!(reg.identify_count(), 2);
        assert!(reg.approx_bytes() > 0);
    }

    #[test]
    fn shared_preset_and_collected_protocol_sets_intern_to_one_id() {
        let agent = AgentVersion::parse("go-ipfs/0.11.0/");
        let preset = ProtocolSet::go_ipfs_dht_server();
        let collected: ProtocolSet = preset.iter().map(|p| p.as_str().to_owned()).collect();
        let mut reg = IdentifyRegistry::new();
        let id = reg.intern_identify(&IdentifyInfo::new(agent.clone(), preset, Vec::new()));
        let again = reg.intern_identify(&IdentifyInfo::new(agent, collected, Vec::new()));
        assert_eq!(id, again);
        assert_eq!(reg.identify_count(), 1);
    }

    #[test]
    fn dense_id_guard_accepts_the_full_u32_space() {
        assert_eq!(dense_id(0, "test"), 0);
        assert_eq!(dense_id(u32::MAX as usize, "test"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "IdentifyRegistry peer-slot capacity exceeded")]
    fn dense_id_guard_panics_loudly_past_u32() {
        let _ = dense_id(u32::MAX as usize + 1, "IdentifyRegistry peer-slot");
    }

    #[test]
    fn registry_rebuilds_from_parts_with_identical_ids() {
        let mut reg = IdentifyRegistry::new();
        let p0 = PeerId::derived(1);
        let p1 = PeerId::derived(2);
        reg.register_peer(p0);
        reg.register_peer(p1);
        reg.intern_addr(addr(7));
        reg.intern_addr(addr(9));
        let i0 = reg.intern_identify(&info("go-ipfs/0.11.0/"));

        let peers: Vec<PeerId> = (0..reg.peer_count() as u32).map(|s| reg.peer(s)).collect();
        let addrs: Vec<Multiaddr> = (0..reg.addr_count() as u32).map(|a| reg.addr(a)).collect();
        let infos: Vec<IdentifyInfo> =
            (0..reg.identify_count() as u32).map(|i| reg.identify(i).clone()).collect();
        let rebuilt = IdentifyRegistry::from_parts(peers, addrs, infos);

        assert_eq!(rebuilt.slot_of(&p0), reg.slot_of(&p0));
        assert_eq!(rebuilt.slot_of(&p1), reg.slot_of(&p1));
        assert_eq!(rebuilt.addr(1), addr(9));
        assert_eq!(rebuilt.identify(i0), reg.identify(i0));
        // And interning continues where the original left off.
        let mut rebuilt = rebuilt;
        assert_eq!(rebuilt.intern_addr(addr(7)), 0);
        assert_eq!(rebuilt.intern_addr(addr(11)), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate peer in registry image")]
    fn registry_from_parts_rejects_duplicates() {
        let p = PeerId::derived(3);
        let _ = IdentifyRegistry::from_parts(vec![p, p], Vec::new(), Vec::new());
    }

    #[test]
    fn observation_kind_byte_roundtrip() {
        for kind in [
            ObservationKind::OpenedInbound,
            ObservationKind::OpenedOutbound,
            ObservationKind::Closed,
            ObservationKind::Identify,
            ObservationKind::Discovered,
        ] {
            assert_eq!(ObservationKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(ObservationKind::from_u8(5), None);
        assert_eq!(ObservationKind::from_u8(255), None);
    }

    #[test]
    fn close_reason_payload_roundtrip() {
        for reason in [
            CloseReason::TrimmedLocal,
            CloseReason::TrimmedRemote,
            CloseReason::PeerLeft,
            CloseReason::MeasurementEnd,
        ] {
            assert_eq!(close_reason_from_payload(close_reason_to_payload(reason)), reason);
        }
    }

    #[test]
    fn table_records_rows_in_order() {
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(9), 3, Direction::Inbound, 11);
        table.identify_received(SimTime::from_secs(2), 3, 5);
        table.connection_closed(SimTime::from_secs(4), ConnectionId(9), 3, CloseReason::PeerLeft);
        table.peer_discovered(SimTime::from_secs(4), 8, 12);

        assert_eq!(table.len(), 4);
        assert!(!table.is_empty());
        assert_eq!(table.kind_at(0), ObservationKind::OpenedInbound);
        assert_eq!(table.kind_at(0).direction(), Some(Direction::Inbound));
        assert_eq!(table.conn_at(0), Some(ConnectionId(9)));
        assert_eq!(table.conn_at(1), None);
        assert_eq!(table.payload_at(1), 5);
        assert_eq!(
            close_reason_from_payload(table.payload_at(2)),
            CloseReason::PeerLeft
        );
        assert_eq!(table.peer_slot_at(3), 8);
        assert!(table.is_sorted_by_time());
        assert!(table.approx_bytes() >= table.len() * ObservationTable::bytes_per_event());
    }

    #[test]
    fn stable_sort_orders_rows_and_preserves_ties() {
        let mut table = ObservationTable::new();
        table.identify_received(SimTime::from_secs(5), 1, 0);
        table.identify_received(SimTime::from_secs(1), 2, 1);
        table.identify_received(SimTime::from_secs(5), 3, 2);
        assert!(!table.is_sorted_by_time());
        table.stable_sort_by_time();
        assert!(table.is_sorted_by_time());
        // FIFO tie-break: slot 1 (payload 0) stays before slot 3 (payload 2).
        assert_eq!(table.peer_slots(), &[2, 1, 3]);
        assert_eq!(table.payloads(), &[1, 0, 2]);
    }

    #[test]
    fn in_place_sort_matches_materialising_permutation_and_keeps_allocations() {
        // A deliberately shuffled table with timestamp ties.
        let mut table = ObservationTable::new();
        let times = [9u64, 2, 7, 2, 9, 1, 7, 7, 3, 0, 2, 9];
        for (i, &t) in times.iter().enumerate() {
            table.identify_received(SimTime::from_secs(t), i as u32, i as u32 + 100);
        }

        // Reference result: the old materialising permutation.
        let mut order: Vec<usize> = (0..table.len()).collect();
        order.sort_by_key(|&i| table.ats()[i]);
        let want_at: Vec<SimTime> = order.iter().map(|&i| table.ats()[i]).collect();
        let want_slots: Vec<u32> = order.iter().map(|&i| table.peer_slots()[i]).collect();
        let want_payloads: Vec<u32> = order.iter().map(|&i| table.payloads()[i]).collect();

        let at_ptr = table.ats().as_ptr();
        let conn_ptr = table.conns().as_ptr();
        table.stable_sort_by_time();
        assert!(table.is_sorted_by_time());
        assert_eq!(table.ats(), &want_at[..]);
        assert_eq!(table.peer_slots(), &want_slots[..]);
        assert_eq!(table.payloads(), &want_payloads[..]);
        // In place: the columns still live in their original allocations.
        assert_eq!(table.ats().as_ptr(), at_ptr);
        assert_eq!(table.conns().as_ptr(), conn_ptr);
    }

    #[test]
    fn table_rebuilds_from_columns() {
        let mut table = ObservationTable::new();
        table.connection_opened(SimTime::from_secs(1), ConnectionId(9), 3, Direction::Inbound, 11);
        table.identify_received(SimTime::from_secs(2), 3, 5);
        table.connection_closed(SimTime::from_secs(4), ConnectionId(9), 3, CloseReason::PeerLeft);
        let rebuilt = ObservationTable::from_columns(
            table.ats().to_vec(),
            table.kinds().to_vec(),
            table.peer_slots().to_vec(),
            table.conns().to_vec(),
            table.payloads().to_vec(),
        );
        assert_eq!(rebuilt, table);
        assert_eq!(rebuilt.checksum(), table.checksum());
    }

    #[test]
    #[should_panic(expected = "observation columns must be parallel")]
    fn from_columns_rejects_ragged_columns() {
        let _ = ObservationTable::from_columns(
            vec![SimTime::ZERO],
            Vec::new(),
            vec![0],
            vec![NO_CONN],
            vec![0],
        );
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = ObservationTable::new();
        a.identify_received(SimTime::from_secs(1), 1, 0);
        a.identify_received(SimTime::from_secs(1), 2, 0);
        let mut b = ObservationTable::new();
        b.identify_received(SimTime::from_secs(1), 2, 0);
        b.identify_received(SimTime::from_secs(1), 1, 0);
        assert_ne!(a.checksum(), b.checksum());
        assert_eq!(a.checksum(), a.clone().checksum());
    }

    #[test]
    fn tee_sink_forwards_every_event_to_both_children() {
        let mut tee = TeeSink::new(ObservationTable::new(), CountingSink::default());
        tee.connection_opened(SimTime::from_secs(1), ConnectionId(4), 2, Direction::Inbound, 7);
        tee.identify_received(SimTime::from_secs(2), 2, 1);
        tee.connection_closed(SimTime::from_secs(3), ConnectionId(4), 2, CloseReason::PeerLeft);
        tee.peer_discovered(SimTime::from_secs(4), 9, 3);
        let (table, counter) = tee.into_parts();
        assert_eq!(table.len(), 4);
        assert_eq!(counter.total(), 4);
        assert_eq!(counter.opened, 1);
        assert_eq!(counter.discovered, 1);

        // A direct table records the identical columns.
        let mut direct = ObservationTable::new();
        direct.connection_opened(SimTime::from_secs(1), ConnectionId(4), 2, Direction::Inbound, 7);
        direct.identify_received(SimTime::from_secs(2), 2, 1);
        direct.connection_closed(SimTime::from_secs(3), ConnectionId(4), 2, CloseReason::PeerLeft);
        direct.peer_discovered(SimTime::from_secs(4), 9, 3);
        assert_eq!(table, direct);
        assert_eq!(table.checksum(), direct.checksum());
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        sink.connection_opened(SimTime::ZERO, ConnectionId(0), 0, Direction::Outbound, 0);
        sink.connection_closed(SimTime::ZERO, ConnectionId(0), 0, CloseReason::TrimmedLocal);
        sink.identify_received(SimTime::ZERO, 0, 0);
        sink.peer_discovered(SimTime::ZERO, 0, 0);
        assert_eq!(sink.total(), 4);
    }
}

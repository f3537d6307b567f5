//! Cross-shard full-fidelity simulation: deterministic inter-shard mailboxes.
//!
//! The classic [`crate::Network`] engine runs the whole population through one
//! event queue — perfect for the paper's 20 k-peer compatibility campaigns,
//! but a single future-event list cannot span tens of millions of peers. This
//! module partitions the population across `S` engine shards and runs the
//! shards in lock-step over sealed simulated time-slices (*epochs*), while
//! keeping the merged trace **byte-identical for any shard count and any
//! worker-thread count**.
//!
//! # Ownership
//!
//! Peers are split into contiguous global-index ranges by [`ShardMap`]
//! (`owner = map.owner(g)`, the same fat-shards-first rule the scale harness
//! uses for `shard_population`). Observers are round-robined: observer `o`
//! lives on shard `o % S`. The shard owning an entity holds its authoritative
//! state and is the only shard that consumes its RNG stream.
//!
//! # Epochs and mailboxes
//!
//! Every *cross-entity* interaction (a remote peer dialing an observer, a
//! gossip discovery, an identify push, an online/offline notice) travels with
//! a uniform latency `L` equal to the epoch length. An event emitted at time
//! `t` inside epoch `k` therefore arrives at `t + L ≥ (k+1)·L` — strictly
//! after the epoch barrier. That is the classic conservative-lookahead
//! argument: shards can process one epoch completely independently, then
//! exchange sealed mailboxes, then start the next epoch.
//!
//! At the barrier every per-`(src, dst)` mailbox is sealed. Then, on the
//! worker threads, each destination concatenates its inbound mailboxes in
//! source-shard order and hands the unsorted batch to its
//! [`KeyedEventQueue`] via `schedule_batch`, which sorts it once by
//! `(time, key, seq)` into its staged run lane. `seq` follows concatenation
//! order, so the pop order is the same as for a batch pre-sorted by
//! `(time, key)`.
//!
//! # Determinism
//!
//! Three mechanisms make the trace independent of the partition:
//!
//! 1. **Total event order.** Every event carries a key
//!    `entity_id << 4 | rank` (peers: `g`; observers: `N + o`). Both drivers
//!    pop in `(time, key, insertion)` order, so handlers execute in one
//!    global order no matter how events were queued.
//! 2. **Per-entity RNG streams.** Each peer and each observer draws from its
//!    own `SimRng` seeded by `splitmix64`-folding `(seed, domain, index)`.
//!    A stream is consumed only inside its entity's handlers, which run in
//!    the total order — so the draws are identical for any partition.
//! 3. **Replicated delayed views.** Observer decisions never touch
//!    authoritative peer state; they read a `VisibleNet` replica built
//!    from broadcast notices that arrive with latency `L` in every
//!    observer-hosting shard, applied in the same total order everywhere.
//!
//! [`run_reference`] runs the identical protocol through one queue with no
//! epochs or mailboxes; differential tests pin `run_full_protocol` at any
//! shard/thread count to its byte-exact output.

use std::collections::HashMap;
use std::sync::Arc;

use p2pmodel::{CloseReason, ConnectionId, ConnectionManager, Direction, PeerId};
use simclock::rng::splitmix64;
use simclock::{KeyedEventQueue, SimDuration, SimRng, SimTime};

use crate::config::{NetworkConfig, ObserverSpec};
use crate::dht::DhtTracker;
use crate::engine::SimulationOutput;
use crate::events::{GroundTruth, GroundTruthEvent, ObserverLog};
use crate::obs::{IdentifyRegistry, ObservationSink, ObservationTable, ShardMap};

/// Event ranks for peer-keyed events (low rank pops first on time ties).
const RANK_SESSION_START: u64 = 0;
const RANK_SESSION_END: u64 = 1;
const RANK_META_FIRE: u64 = 2;
const RANK_NOTICE_ONLINE: u64 = 3;
const RANK_NOTICE_META: u64 = 4;
const RANK_NOTICE_OFFLINE: u64 = 5;
const RANK_DIAL: u64 = 6;
const RANK_GOSSIP: u64 = 7;

/// Event ranks for observer-keyed events.
const RANK_MAINT: u64 = 0;
const RANK_CLOSE: u64 = 1;
const RANK_REDIAL: u64 = 2;

/// Domain separators for per-entity RNG stream derivation.
const PEER_RNG_DOMAIN: u64 = 0x9ed1_cafe_0000_0001;
const OBSERVER_RNG_DOMAIN: u64 = 0x9ed1_cafe_0000_0002;

/// Maintenance dial attempts per pass (mirrors the classic engine's budget).
const MAINT_DIAL_BUDGET: usize = 4;

/// FNV-1a fold constants for combining per-observer table checksums.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Derives an independent RNG seed for entity `idx` in `domain` from the
/// campaign seed, via two splitmix64 folds.
fn derive_seed(seed: u64, domain: u64, idx: u64) -> u64 {
    let mut state = seed ^ domain;
    let a = splitmix64(&mut state);
    state ^= idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    a ^ splitmix64(&mut state)
}

/// Total-order key for a peer-owned event.
fn peer_key(g: u32, rank: u64) -> u64 {
    ((g as u64) << 4) | rank
}

/// Total-order key for an observer-owned event; `n` is the population size.
fn obs_key(n: usize, o: u32, rank: u64) -> u64 {
    (((n as u64) + o as u64) << 4) | rank
}

/// The full-protocol event vocabulary. Peer indices (`peer`) are global
/// population indices; observer indices (`obs`) are global observer indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FpEvent {
    /// A peer's session begins (owner shard).
    SessionStart { peer: u32 },
    /// A peer's session ends (owner shard).
    SessionEnd { peer: u32 },
    /// A peer's next scheduled metadata change fires (owner shard).
    MetadataFire { peer: u32 },
    /// Broadcast: peer came online (observer-hosting shards).
    NoticeOnline { peer: u32 },
    /// Broadcast: peer went offline (observer-hosting shards).
    NoticeOffline { peer: u32 },
    /// Broadcast: peer's identify payload changed (observer-hosting shards).
    NoticeMetadata { peer: u32, identify_id: u32, server: bool },
    /// A peer dials an observer (observer's owner shard).
    Dial { peer: u32, obs: u32 },
    /// An observer learns of a peer through gossip (observer's owner shard).
    Gossip { peer: u32, obs: u32 },
    /// Observer connection-manager maintenance pass (observer's owner shard).
    Maintenance { obs: u32 },
    /// The remote end of a connection trims it (observer's owner shard).
    HoldExpired { obs: u32, conn: u64 },
    /// A disconnected peer redials the observer (observer's owner shard).
    Redial { obs: u32, peer: u32 },
}

/// One sealed mailbox entry: `(arrival time, total-order key, event)`.
type MailEntry = (SimTime, u64, FpEvent);

/// Immutable population data shared by every shard through an [`Arc`].
///
/// Built once by [`freeze`]: the registry interns every peer, address and
/// identify payload (including each peer's full metadata-change chain) in
/// global population order, so all shards resolve the same ids.
struct FrozenPopulation {
    registry: Arc<IdentifyRegistry>,
    /// Population-order peer ids.
    peer_ids: Vec<PeerId>,
    /// Registry slot per peer (duplicate `PeerId`s share a slot).
    slots: Vec<u32>,
    /// Interned multiaddress id per peer.
    addr_ids: Vec<u32>,
    /// Interned id of the peer's initial identify payload.
    base_identify: Vec<u32>,
    /// Whether the peer starts as a DHT server.
    initial_server: Vec<bool>,
    /// Dialing/holding behaviour per peer (observer shards sample hold times
    /// and redial delays from the behaviour of the peer they talk to).
    behaviors: Vec<crate::spec::DialBehavior>,
    /// Whether each observer (global order) is a DHT server.
    obs_server: Vec<bool>,
}

/// Authoritative per-peer state, owned by exactly one shard.
struct PeerRuntime {
    rng: SimRng,
    session: crate::spec::SessionPattern,
    gossip_visibility: f64,
    /// Pre-resolved metadata chain: `(fire time, identify id, is_server)`.
    changes: Vec<(SimTime, u32, bool)>,
    next_change: usize,
    is_server: bool,
    online: bool,
    next_session_end: Option<SimTime>,
}

/// Delayed network view replicated on every observer-hosting shard.
///
/// Built purely from broadcast notices, which arrive with latency `L` and are
/// applied in the total event order — so every replica transitions through
/// the identical state sequence regardless of the partition.
struct VisibleNet {
    online: Vec<bool>,
    server: Vec<bool>,
    identify: Vec<u32>,
    /// Dense list of online DHT servers (maintenance dial candidates).
    servers_list: Vec<u32>,
    /// Position of peer `g` in `servers_list`, `u32::MAX` if absent.
    servers_pos: Vec<u32>,
}

impl VisibleNet {
    fn new(frozen: &FrozenPopulation) -> Self {
        let n = frozen.peer_ids.len();
        VisibleNet {
            online: vec![false; n],
            server: frozen.initial_server.clone(),
            identify: frozen.base_identify.clone(),
            servers_list: Vec::new(),
            servers_pos: vec![u32::MAX; n],
        }
    }

    fn insert_server(&mut self, g: u32) {
        if self.servers_pos[g as usize] != u32::MAX {
            return;
        }
        self.servers_pos[g as usize] = self.servers_list.len() as u32;
        self.servers_list.push(g);
    }

    fn remove_server(&mut self, g: u32) {
        let pos = self.servers_pos[g as usize];
        if pos == u32::MAX {
            return;
        }
        self.servers_pos[g as usize] = u32::MAX;
        let last = self.servers_list.len() - 1;
        self.servers_list.swap_remove(pos as usize);
        if (pos as usize) < last {
            let moved = self.servers_list[pos as usize];
            self.servers_pos[moved as usize] = pos;
        }
    }
}

/// Per-observer runtime state, owned by shard `o % S`.
struct ObserverRuntime {
    spec: ObserverSpec,
    global: u32,
    rng: SimRng,
    sink: ObservationTable,
    connmgr: ConnectionManager,
    conn_peer: HashMap<ConnectionId, (u32, Direction)>,
    peer_conn: HashMap<u32, ConnectionId>,
    outbound_open: usize,
    next_conn_id: u64,
}

/// How a shard emits cross-entity events.
enum Route {
    /// Reference mode: schedule straight into the local queue.
    Direct,
    /// Sharded mode: buffer into per-destination mailboxes, plus one
    /// broadcast lane delivered to every observer-hosting shard.
    Mailbox {
        out: Vec<Vec<MailEntry>>,
        broadcast: Vec<MailEntry>,
    },
}

/// One engine shard: a contiguous peer range, its round-robin observers, a
/// keyed event queue and the outbound mailboxes of the current epoch.
struct Shard {
    frozen: Arc<FrozenPopulation>,
    peer_start: u32,
    peers: Vec<PeerRuntime>,
    observers: Vec<ObserverRuntime>,
    visible: Option<VisibleNet>,
    queue: KeyedEventQueue<FpEvent>,
    route: Route,
    /// Ground-truth tuples `(at, peer, rank, server)`; rank 0 = online,
    /// 1 = role change, 2 = offline. Merged and sorted canonically at
    /// assembly, so per-shard buffers are order-free.
    gt: Vec<(SimTime, u32, u8, bool)>,
    end: SimTime,
    latency: SimDuration,
    peer_count: usize,
    obs_total: u32,
    shard_count: usize,
    processed: u64,
}

impl Shard {
    fn local_peer(&self, g: u32) -> usize {
        (g - self.peer_start) as usize
    }

    fn local_obs(&self, o: u32) -> usize {
        (o as usize) / self.shard_count
    }

    fn emit_to_observer(&mut self, o: u32, at: SimTime, key: u64, event: FpEvent) {
        match &mut self.route {
            Route::Direct => self.queue.schedule(at, key, event),
            Route::Mailbox { out, .. } => {
                out[(o as usize) % self.shard_count].push((at, key, event));
            }
        }
    }

    fn emit_broadcast(&mut self, at: SimTime, key: u64, event: FpEvent) {
        match &mut self.route {
            Route::Direct => {
                if self.visible.is_some() {
                    self.queue.schedule(at, key, event);
                }
            }
            Route::Mailbox { broadcast, .. } => broadcast.push((at, key, event)),
        }
    }

    /// Seeds the queue: every owned peer's first session, metadata chain and
    /// gossip sightings, and every local observer's first maintenance pass.
    fn init(&mut self) {
        let end_ms = (self.end - SimTime::ZERO).as_millis();
        let mut local: Vec<MailEntry> = Vec::with_capacity(self.peers.len() * 2);
        let mut gossip: Vec<(u32, u32, SimTime)> = Vec::new();
        for li in 0..self.peers.len() {
            let g = self.peer_start + li as u32;
            let p = &mut self.peers[li];
            let (start, end_opt) = p.session.first_session(&mut p.rng);
            p.next_session_end = end_opt;
            local.push((start, peer_key(g, RANK_SESSION_START), FpEvent::SessionStart { peer: g }));
            for &(at, _, _) in &p.changes {
                local.push((at, peer_key(g, RANK_META_FIRE), FpEvent::MetadataFire { peer: g }));
            }
            if p.gossip_visibility > 0.0 {
                for o in 0..self.obs_total {
                    if p.rng.chance(p.gossip_visibility) {
                        let at = SimTime::from_millis(p.rng.uniform_u64(0, end_ms.max(1)));
                        gossip.push((g, o, at));
                    }
                }
            }
        }
        for (g, o, at) in gossip {
            self.emit_to_observer(o, at, peer_key(g, RANK_GOSSIP), FpEvent::Gossip { peer: g, obs: o });
        }
        for li in 0..self.observers.len() {
            let ob = &self.observers[li];
            let at = SimTime::ZERO + ob.spec.maintenance_interval;
            let key = obs_key(self.peer_count, ob.global, RANK_MAINT);
            let ev = FpEvent::Maintenance { obs: ob.global };
            self.queue.schedule(at, key, ev);
        }
        self.queue.schedule_batch(local);
    }

    /// Drains the queue up to `limit` — strictly exclusive during lock-step
    /// epochs, inclusive (`pop_until`) for the final drain so every event at
    /// exactly the end time is queued before any of them is processed.
    fn run_epoch(&mut self, limit: SimTime, last: bool) {
        loop {
            let popped = if last {
                self.queue.pop_until(limit)
            } else {
                self.queue.pop_before(limit)
            };
            let Some((now, _key, event)) = popped else { break };
            self.processed += 1;
            self.dispatch(now, event);
        }
    }

    fn dispatch(&mut self, now: SimTime, event: FpEvent) {
        match event {
            FpEvent::SessionStart { peer } => self.handle_session_start(now, peer),
            FpEvent::SessionEnd { peer } => self.handle_session_end(now, peer),
            FpEvent::MetadataFire { peer } => self.handle_metadata_fire(now, peer),
            FpEvent::NoticeOnline { peer } => self.handle_notice_online(peer),
            FpEvent::NoticeOffline { peer } => self.handle_notice_offline(now, peer),
            FpEvent::NoticeMetadata { peer, identify_id, server } => {
                self.handle_notice_metadata(now, peer, identify_id, server)
            }
            FpEvent::Dial { peer, obs } => self.handle_dial(now, peer, obs),
            FpEvent::Gossip { peer, obs } => self.handle_gossip(now, peer, obs),
            FpEvent::Maintenance { obs } => self.handle_maintenance(now, obs),
            FpEvent::HoldExpired { obs, conn } => self.handle_hold_expired(now, obs, conn),
            FpEvent::Redial { obs, peer } => self.handle_redial(now, obs, peer),
        }
    }

    fn handle_session_start(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (session_end, is_server, dials) = {
            let p = &mut self.peers[li];
            if p.online {
                return;
            }
            p.online = true;
            let behavior = &self.frozen.behaviors[g as usize];
            let mut dials = Vec::new();
            for o in 0..self.obs_total {
                if behavior.dials(self.frozen.obs_server[o as usize], &mut p.rng) {
                    let delay = behavior.sample_redial_delay(&mut p.rng);
                    dials.push((o, delay));
                }
            }
            (p.next_session_end, p.is_server, dials)
        };
        self.gt.push((now, g, 0, is_server));
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_ONLINE),
            FpEvent::NoticeOnline { peer: g },
        );
        if let Some(end_at) = session_end {
            self.queue
                .schedule(end_at, peer_key(g, RANK_SESSION_END), FpEvent::SessionEnd { peer: g });
        }
        for (o, delay) in dials {
            self.emit_to_observer(
                o,
                now + latency + delay,
                peer_key(g, RANK_DIAL),
                FpEvent::Dial { peer: g, obs: o },
            );
        }
    }

    fn handle_session_end(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (is_server, next) = {
            let p = &mut self.peers[li];
            if !p.online {
                return;
            }
            p.online = false;
            let next = p.session.next_session(now, &mut p.rng);
            if let Some((_, end_opt)) = next {
                p.next_session_end = end_opt;
            }
            (p.is_server, next)
        };
        self.gt.push((now, g, 2, is_server));
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_OFFLINE),
            FpEvent::NoticeOffline { peer: g },
        );
        if let Some((start, _)) = next {
            self.queue
                .schedule(start, peer_key(g, RANK_SESSION_START), FpEvent::SessionStart { peer: g });
        }
    }

    fn handle_metadata_fire(&mut self, now: SimTime, g: u32) {
        let li = self.local_peer(g);
        let (id, server, flipped) = {
            let p = &mut self.peers[li];
            let Some(&(_, id, server)) = p.changes.get(p.next_change) else {
                return;
            };
            p.next_change += 1;
            let flipped = server != p.is_server;
            p.is_server = server;
            (id, server, flipped)
        };
        if flipped {
            self.gt.push((now, g, 1, server));
        }
        let latency = self.latency;
        self.emit_broadcast(
            now + latency,
            peer_key(g, RANK_NOTICE_META),
            FpEvent::NoticeMetadata { peer: g, identify_id: id, server },
        );
    }

    fn handle_notice_online(&mut self, g: u32) {
        let Some(v) = self.visible.as_mut() else { return };
        v.online[g as usize] = true;
        if v.server[g as usize] {
            v.insert_server(g);
        }
    }

    fn handle_notice_offline(&mut self, now: SimTime, g: u32) {
        {
            let Some(v) = self.visible.as_mut() else { return };
            v.online[g as usize] = false;
            v.remove_server(g);
        }
        for li in 0..self.observers.len() {
            if let Some(&conn) = self.observers[li].peer_conn.get(&g) {
                self.close_connection(now, li, conn, CloseReason::PeerLeft, false);
            }
        }
    }

    fn handle_notice_metadata(&mut self, now: SimTime, g: u32, id: u32, server: bool) {
        {
            let Some(v) = self.visible.as_mut() else { return };
            v.identify[g as usize] = id;
            if server != v.server[g as usize] {
                v.server[g as usize] = server;
                if v.online[g as usize] {
                    if server {
                        v.insert_server(g);
                    } else {
                        v.remove_server(g);
                    }
                }
            }
        }
        // Connected observers receive the change as an identify push.
        let slot = self.frozen.slots[g as usize];
        for ob in &mut self.observers {
            if ob.peer_conn.contains_key(&g) {
                ob.sink.identify_received(now, slot, id);
            }
        }
    }

    fn handle_dial(&mut self, now: SimTime, g: u32, o: u32) {
        let Some(v) = self.visible.as_ref() else { return };
        if !v.online[g as usize] {
            return;
        }
        let li = self.local_obs(o);
        if self.observers[li].peer_conn.contains_key(&g) {
            return;
        }
        self.open_connection(now, li, g, Direction::Inbound);
    }

    fn handle_gossip(&mut self, now: SimTime, g: u32, o: u32) {
        let li = self.local_obs(o);
        let slot = self.frozen.slots[g as usize];
        let addr = self.frozen.addr_ids[g as usize];
        self.observers[li].sink.peer_discovered(now, slot, addr);
    }

    fn handle_maintenance(&mut self, now: SimTime, o: u32) {
        let li = self.local_obs(o);
        let mut budget = MAINT_DIAL_BUDGET;
        while budget > 0 {
            let ob = &self.observers[li];
            if ob.outbound_open >= ob.spec.outbound_target {
                break;
            }
            let Some(v) = self.visible.as_ref() else { break };
            let len = v.servers_list.len();
            if len == 0 {
                break;
            }
            budget -= 1;
            let k = self.observers[li].rng.index(len);
            let g = self.visible.as_ref().expect("observer shard has a view").servers_list[k];
            if self.observers[li].peer_conn.contains_key(&g) {
                continue;
            }
            self.open_connection(now, li, g, Direction::Outbound);
        }
        let to_close = self.observers[li].connmgr.maybe_trim(now).to_close;
        for conn in to_close {
            self.close_connection(now, li, conn, CloseReason::TrimmedLocal, true);
        }
        let next = now + self.observers[li].spec.maintenance_interval;
        if next <= self.end {
            let key = obs_key(self.peer_count, o, RANK_MAINT);
            self.queue.schedule(next, key, FpEvent::Maintenance { obs: o });
        }
    }

    fn handle_hold_expired(&mut self, now: SimTime, o: u32, conn: u64) {
        let li = self.local_obs(o);
        let conn = ConnectionId(conn);
        if !self.observers[li].conn_peer.contains_key(&conn) {
            return;
        }
        self.close_connection(now, li, conn, CloseReason::TrimmedRemote, true);
    }

    fn handle_redial(&mut self, now: SimTime, o: u32, g: u32) {
        let Some(v) = self.visible.as_ref() else { return };
        if !v.online[g as usize] {
            return;
        }
        let li = self.local_obs(o);
        if self.observers[li].peer_conn.contains_key(&g) {
            return;
        }
        self.open_connection(now, li, g, Direction::Inbound);
    }

    fn open_connection(&mut self, now: SimTime, li: usize, g: u32, direction: Direction) {
        let (visible_identify, visible_server) = {
            let v = self.visible.as_ref().expect("observer shard has a view");
            (v.identify[g as usize], v.server[g as usize])
        };
        let (og, hold) = {
            let ob = &mut self.observers[li];
            let behavior = &self.frozen.behaviors[g as usize];
            let conn = ConnectionId(ob.next_conn_id);
            ob.next_conn_id += 1;
            ob.sink.connection_opened(
                now,
                conn,
                self.frozen.slots[g as usize],
                direction,
                self.frozen.addr_ids[g as usize],
            );
            ob.conn_peer.insert(conn, (g, direction));
            ob.peer_conn.insert(g, conn);
            if direction == Direction::Outbound {
                ob.outbound_open += 1;
            }
            ob.connmgr.track(conn, self.frozen.peer_ids[g as usize], now);
            let mut value = behavior.observer_value;
            if visible_server {
                value += 10;
            }
            ob.connmgr.tag(conn, value);
            if direction == Direction::Outbound {
                ob.connmgr.protect(conn);
            }
            if ob.rng.chance(behavior.identify_prob) {
                ob.sink
                    .identify_received(now, self.frozen.slots[g as usize], visible_identify);
            }
            let valued_by_remote =
                ob.spec.role.is_server() && direction == Direction::Inbound;
            let hold = behavior.sample_hold(valued_by_remote, &mut ob.rng);
            (ob.global, (conn, hold))
        };
        let (conn, hold) = hold;
        let key = obs_key(self.peer_count, og, RANK_CLOSE);
        self.queue
            .schedule(now + hold, key, FpEvent::HoldExpired { obs: og, conn: conn.0 });
    }

    fn close_connection(
        &mut self,
        now: SimTime,
        li: usize,
        conn: ConnectionId,
        reason: CloseReason,
        maybe_reconnect: bool,
    ) {
        let redial = {
            let ob = &mut self.observers[li];
            let Some((g, direction)) = ob.conn_peer.remove(&conn) else {
                return;
            };
            ob.peer_conn.remove(&g);
            if direction == Direction::Outbound {
                ob.outbound_open -= 1;
            }
            ob.connmgr.untrack(conn);
            ob.sink
                .connection_closed(now, conn, self.frozen.slots[g as usize], reason);
            if maybe_reconnect && direction == Direction::Inbound {
                let online = self
                    .visible
                    .as_ref()
                    .map(|v| v.online[g as usize])
                    .unwrap_or(false);
                let behavior = &self.frozen.behaviors[g as usize];
                if online && behavior.reconnect {
                    let delay = behavior.sample_redial_delay(&mut ob.rng);
                    Some((ob.global, g, delay))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((og, g, delay)) = redial {
            let key = obs_key(self.peer_count, og, RANK_REDIAL);
            self.queue
                .schedule(now + delay, key, FpEvent::Redial { obs: og, peer: g });
        }
    }

    /// Closes every still-open connection at the end of the measurement, in
    /// ascending [`ConnectionId`] order (matching the classic engine).
    fn finish(&mut self) {
        let end = self.end;
        for li in 0..self.observers.len() {
            let mut open: Vec<ConnectionId> =
                self.observers[li].conn_peer.keys().copied().collect();
            open.sort_unstable();
            for conn in open {
                self.close_connection(end, li, conn, CloseReason::MeasurementEnd, false);
            }
        }
    }

    /// Seals and removes this epoch's outbound mailboxes.
    fn take_outbox(&mut self) -> (Vec<Vec<MailEntry>>, Vec<MailEntry>) {
        match &mut self.route {
            Route::Direct => (Vec::new(), Vec::new()),
            Route::Mailbox { out, broadcast } => (
                out.iter_mut().map(std::mem::take).collect(),
                std::mem::take(broadcast),
            ),
        }
    }
}

/// Delivers every sealed mailbox. Each destination shard builds its own
/// batch on the worker threads: its inbound entries concatenated in
/// source-shard order (broadcast lanes only into observer-hosting shards),
/// handed unsorted to `schedule_batch`, whose single `(time, key, seq)` sort
/// is the only one the barrier pays. Sequence numbers follow concatenation
/// order, so entries with equal `(time, key)` keep source-shard order, and no
/// arrival is earlier than the destination's clock (latency ≥ epoch), so the
/// queue never clamps one — the pop order is that of a pre-sorted batch.
///
/// Returns `(delivered, cross_shard)` entry counts.
fn exchange(shards: &mut [Shard], threads: usize) -> (u64, u64) {
    let outs: Vec<(Vec<Vec<MailEntry>>, Vec<MailEntry>)> =
        shards.iter_mut().map(Shard::take_outbox).collect();
    let mut delivered = 0u64;
    let mut cross = 0u64;
    let mut batch_len = vec![0usize; shards.len()];
    for (d, shard) in shards.iter().enumerate() {
        let host_observers = !shard.observers.is_empty();
        for (s, (out, broadcast)) in outs.iter().enumerate() {
            let mut len = out.get(d).map_or(0, Vec::len);
            if host_observers {
                len += broadcast.len();
            }
            batch_len[d] += len;
            if s != d {
                cross += len as u64;
            }
        }
        delivered += batch_len[d] as u64;
    }
    par_shards(shards, threads, |d, shard| {
        let host_observers = !shard.observers.is_empty();
        let mut batch: Vec<MailEntry> = Vec::with_capacity(batch_len[d]);
        for (out, broadcast) in &outs {
            if let Some(direct) = out.get(d) {
                batch.extend_from_slice(direct);
            }
            if host_observers {
                batch.extend_from_slice(broadcast);
            }
        }
        debug_assert!(
            batch.iter().all(|&(at, _, _)| at >= shard.queue.now()),
            "a mailbox entry arrived before its destination's clock"
        );
        shard.queue.schedule_batch(batch);
    });
    (delivered, cross)
}

/// Runs `f(index, shard)` over every shard, round-robining shards across at
/// most `threads` scoped worker threads. The assignment is static
/// (`shard % t`), so the partition of work — and therefore the trace — is
/// identical for every thread count; threads only change wall-clock time.
fn par_shards<F: Fn(usize, &mut Shard) + Sync>(shards: &mut [Shard], threads: usize, f: F) {
    let t = threads.max(1).min(shards.len().max(1));
    if t <= 1 {
        for (i, shard) in shards.iter_mut().enumerate() {
            f(i, shard);
        }
        return;
    }
    let mut buckets: Vec<Vec<(usize, &mut Shard)>> = (0..t).map(|_| Vec::new()).collect();
    for (i, shard) in shards.iter_mut().enumerate() {
        buckets[i % t].push((i, shard));
    }
    let fref = &f;
    std::thread::scope(|scope| {
        for bucket in buckets {
            scope.spawn(move || {
                for (i, shard) in bucket {
                    fref(i, shard);
                }
            });
        }
    });
}

/// Configuration of a full-protocol (reference or sharded) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FullProtocolConfig {
    /// Seed for every stochastic decision in the run.
    pub seed: u64,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Epoch length = uniform cross-entity latency `L`. Must be positive;
    /// sub-millisecond values are clamped to 1 ms.
    pub epoch: SimDuration,
    /// Number of engine shards (sharded driver only; clamped to ≥ 1).
    pub shards: usize,
    /// Worker threads for the lock-step epochs (does not affect the trace).
    pub threads: usize,
    /// The passive measurement nodes to deploy.
    pub observers: Vec<ObserverSpec>,
}

impl FullProtocolConfig {
    /// Creates a config with a 60 s epoch, one shard and one thread.
    pub fn new(seed: u64, duration: SimDuration, observers: Vec<ObserverSpec>) -> Self {
        FullProtocolConfig {
            seed,
            duration,
            epoch: SimDuration::from_secs(60),
            shards: 1,
            threads: 1,
            observers,
        }
    }

    /// Derives a full-protocol config from a classic [`NetworkConfig`].
    pub fn from_network(cfg: &NetworkConfig) -> Self {
        FullProtocolConfig::new(cfg.seed, cfg.duration, cfg.observers.clone())
    }

    /// Returns a copy with a different epoch length.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.epoch = epoch;
        self
    }

    /// Returns a copy with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn latency(&self) -> SimDuration {
        self.epoch.max(SimDuration::from_millis(1))
    }
}

/// Aggregate counters of a full-protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MailboxStats {
    /// Lock-step epochs executed (0 for the reference driver).
    pub epochs: u64,
    /// Mailbox entries delivered across all exchanges (0 for reference).
    pub mailbox_events: u64,
    /// Mailbox entries whose source and destination shard differ.
    pub cross_shard_events: u64,
    /// Simulator events processed across all shards.
    pub sim_events: u64,
    /// Observation rows recorded across all observers.
    pub observations: u64,
    /// FNV-1a fold of every observer table checksum, in observer order.
    /// Byte-identical runs produce equal checksums.
    pub checksum: u64,
}

/// Result of a full-protocol run: the standard [`SimulationOutput`] plus the
/// run's [`MailboxStats`].
#[derive(Debug)]
pub struct FullProtocolRun {
    /// Observer logs, ground truth and (disabled) DHT log.
    pub output: SimulationOutput,
    /// Aggregate counters of the run.
    pub stats: MailboxStats,
}

/// Interns the whole population into one registry (global order) and builds
/// each shard's authoritative peer runtimes.
fn freeze(
    specs: Vec<crate::spec::RemotePeerSpec>,
    seed: u64,
    map: &ShardMap,
) -> (FrozenPopulation, Vec<Vec<PeerRuntime>>) {
    let n = specs.len();
    let mut registry = IdentifyRegistry::with_capacity(n);
    let mut peer_ids = Vec::with_capacity(n);
    let mut slots = Vec::with_capacity(n);
    let mut addr_ids = Vec::with_capacity(n);
    let mut base_identify = Vec::with_capacity(n);
    let mut initial_server = Vec::with_capacity(n);
    let mut behaviors = Vec::with_capacity(n);
    let mut runtimes: Vec<Vec<PeerRuntime>> = (0..map.shards())
        .map(|s| Vec::with_capacity(map.count(s)))
        .collect();
    for (g, spec) in specs.into_iter().enumerate() {
        let crate::spec::RemotePeerSpec {
            peer_id,
            addr,
            identify,
            session,
            behavior,
            changes: scheduled,
            gossip_visibility,
            ..
        } = spec;
        let slot = registry.register_peer(peer_id);
        let addr_id = registry.intern_addr(addr);
        let base_id = registry.intern_identify(&identify);
        let is_server = identify.is_dht_server();
        // The spec is owned, so the chain mutates its payload without a clone.
        let mut current = identify;
        let mut changes = Vec::with_capacity(scheduled.len());
        for sc in &scheduled {
            sc.change.apply(&mut current);
            let id = registry.intern_identify(&current);
            changes.push((sc.at, id, current.is_dht_server()));
        }
        peer_ids.push(peer_id);
        slots.push(slot);
        addr_ids.push(addr_id);
        base_identify.push(base_id);
        initial_server.push(is_server);
        behaviors.push(behavior);
        runtimes[map.owner(g)].push(PeerRuntime {
            rng: SimRng::seed_from(derive_seed(seed, PEER_RNG_DOMAIN, g as u64)),
            session,
            gossip_visibility,
            changes,
            next_change: 0,
            is_server,
            online: false,
            next_session_end: None,
        });
    }
    let frozen = FrozenPopulation {
        registry: Arc::new(registry),
        peer_ids,
        slots,
        addr_ids,
        base_identify,
        initial_server,
        behaviors,
        obs_server: Vec::new(),
    };
    (frozen, runtimes)
}

/// Shared driver body; `reference` collapses to one shard with direct
/// routing and no epochs.
fn run_with(
    cfg: &FullProtocolConfig,
    specs: Vec<crate::spec::RemotePeerSpec>,
    reference: bool,
) -> FullProtocolRun {
    let n = specs.len();
    let shard_count = if reference { 1 } else { cfg.shards.max(1) };
    let map = ShardMap::new(n, shard_count);
    let (mut frozen, mut runtimes) = freeze(specs, cfg.seed, &map);
    frozen.obs_server = cfg.observers.iter().map(|o| o.role.is_server()).collect();
    let frozen = Arc::new(frozen);
    let end = SimTime::ZERO + cfg.duration;
    let latency = cfg.latency();
    let obs_total = cfg.observers.len() as u32;

    let mut shards: Vec<Shard> = (0..shard_count)
        .map(|s| {
            let observers: Vec<ObserverRuntime> = cfg
                .observers
                .iter()
                .enumerate()
                .filter(|(o, _)| o % shard_count == s)
                .map(|(o, spec)| ObserverRuntime {
                    spec: spec.clone(),
                    global: o as u32,
                    rng: SimRng::seed_from(derive_seed(cfg.seed, OBSERVER_RNG_DOMAIN, o as u64)),
                    sink: spec.presized_table(),
                    connmgr: ConnectionManager::new(spec.limits),
                    conn_peer: HashMap::with_capacity(spec.expected_connections()),
                    peer_conn: HashMap::with_capacity(spec.expected_connections()),
                    outbound_open: 0,
                    next_conn_id: 0,
                })
                .collect();
            let visible = (!observers.is_empty()).then(|| VisibleNet::new(&frozen));
            let route = if reference {
                Route::Direct
            } else {
                Route::Mailbox {
                    out: (0..shard_count).map(|_| Vec::new()).collect(),
                    broadcast: Vec::new(),
                }
            };
            Shard {
                frozen: Arc::clone(&frozen),
                peer_start: map.start(s) as u32,
                peers: std::mem::take(&mut runtimes[s]),
                observers,
                visible,
                queue: KeyedEventQueue::new(),
                route,
                gt: Vec::new(),
                end,
                latency,
                peer_count: n,
                obs_total,
                shard_count,
                processed: 0,
            }
        })
        .collect();

    let mut stats = MailboxStats::default();
    par_shards(&mut shards, cfg.threads, |_, shard| shard.init());
    if !reference {
        // Upfront exchange: gossip sightings drawn at init are scheduled at
        // arbitrary times, so they must be delivered before epoch 0 starts.
        let (d, c) = exchange(&mut shards, cfg.threads);
        stats.mailbox_events += d;
        stats.cross_shard_events += c;
        let end_ms = cfg.duration.as_millis();
        let epoch_ms = latency.as_millis();
        let mut k = 0u64;
        loop {
            let start_ms = k * epoch_ms;
            if start_ms >= end_ms {
                break;
            }
            let limit = SimTime::from_millis(((k + 1) * epoch_ms).min(end_ms));
            par_shards(&mut shards, cfg.threads, |_, shard| shard.run_epoch(limit, false));
            let (d, c) = exchange(&mut shards, cfg.threads);
            stats.mailbox_events += d;
            stats.cross_shard_events += c;
            stats.epochs += 1;
            k += 1;
        }
        // Final drain: every event at exactly `end` is already queued, so
        // both drivers process the end-time tie-break in the same key order.
        par_shards(&mut shards, cfg.threads, |_, shard| shard.run_epoch(end, true));
    } else {
        shards[0].run_epoch(end, true);
    }
    par_shards(&mut shards, cfg.threads, |_, shard| shard.finish());

    // Assembly: canonical observer order, canonical ground-truth order.
    let mut tables: Vec<(u32, ObserverSpec, ObservationTable)> = Vec::with_capacity(obs_total as usize);
    let mut gt_rows: Vec<(SimTime, u32, u8, bool)> = Vec::new();
    for shard in &mut shards {
        stats.sim_events += shard.processed;
        gt_rows.append(&mut shard.gt);
        for ob in shard.observers.drain(..) {
            tables.push((ob.global, ob.spec, ob.sink));
        }
    }
    tables.sort_by_key(|&(global, _, _)| global);
    let mut checksum = FNV_OFFSET;
    let logs: Vec<ObserverLog> = tables
        .into_iter()
        .map(|(_, spec, mut table)| {
            table.stable_sort_by_time();
            stats.observations += table.len() as u64;
            checksum = (checksum ^ table.checksum()).wrapping_mul(FNV_PRIME);
            ObserverLog::from_columns(
                spec.name,
                spec.peer_id,
                spec.role.is_server(),
                SimTime::ZERO,
                end,
                table,
                Arc::clone(&frozen.registry),
            )
        })
        .collect();
    stats.checksum = checksum;

    gt_rows.sort_by_key(|&(at, g, rank, _)| (at, g, rank));
    let events = gt_rows
        .into_iter()
        .map(|(at, g, rank, server)| {
            let peer = frozen.peer_ids[g as usize];
            match rank {
                0 => GroundTruthEvent::PeerOnline { at, peer },
                1 => GroundTruthEvent::RoleChanged { at, peer, dht_server: server },
                _ => GroundTruthEvent::PeerOffline { at, peer },
            }
        })
        .collect();
    let ground_truth = GroundTruth {
        peers: frozen
            .peer_ids
            .iter()
            .copied()
            .zip(frozen.initial_server.iter().copied())
            .collect(),
        events,
    };
    let output =
        SimulationOutput::from_logs(logs, ground_truth, DhtTracker::disabled().into_log());
    FullProtocolRun { output, stats }
}

/// Runs the full-protocol campaign sharded across `cfg.shards` lock-step
/// engine shards with deterministic inter-shard mailboxes.
///
/// The merged trace is byte-identical for every shard count and every
/// worker-thread count, and equal to [`run_reference`] on the same inputs.
pub fn run_full_protocol(
    cfg: &FullProtocolConfig,
    specs: Vec<crate::spec::RemotePeerSpec>,
) -> FullProtocolRun {
    run_with(cfg, specs, false)
}

/// Runs the identical protocol through a single keyed event queue with no
/// epochs or mailboxes — the oracle the sharded driver is pinned against.
pub fn run_reference(
    cfg: &FullProtocolConfig,
    specs: Vec<crate::spec::RemotePeerSpec>,
) -> FullProtocolRun {
    run_with(cfg, specs, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtRole;
    use crate::spec::{
        DialBehavior, MetadataChange, RemotePeerSpec, ScheduledChange, SessionPattern,
    };
    use p2pmodel::{AgentVersion, ConnLimits, IdentifyInfo, IpAddress, Multiaddr, ProtocolSet};

    fn tiny_population(n: usize, seed: u64) -> Vec<RemotePeerSpec> {
        let mut rng = SimRng::seed_from(seed);
        (0..n)
            .map(|i| {
                let server = rng.chance(0.6);
                let protocols = if server {
                    ProtocolSet::go_ipfs_dht_server()
                } else {
                    ProtocolSet::go_ipfs_dht_client()
                };
                let session = match rng.index(5) {
                    0 => SessionPattern::AlwaysOn,
                    1..=3 => SessionPattern::Intermittent {
                        online_median_secs: 300.0,
                        offline_median_secs: 150.0,
                        sigma: 0.8,
                        initial_delay_secs: rng.unit() * 400.0,
                    },
                    _ => SessionPattern::OneShot {
                        arrival_secs: rng.unit() * 600.0,
                        stay_secs: 400.0,
                    },
                };
                let behavior = DialBehavior {
                    dial_server_prob: 0.9,
                    dial_client_prob: 0.2,
                    redial_median_secs: 30.0,
                    redial_sigma: 0.8,
                    reconnect: true,
                    hold_server_median_secs: 120.0,
                    hold_client_median_secs: 60.0,
                    hold_sigma: 1.0,
                    identify_prob: 0.95,
                    observer_value: 0,
                };
                let mut spec = RemotePeerSpec::new(
                    PeerId::derived(i as u64),
                    Multiaddr::default_swarm(IpAddress::random_v4(&mut rng)),
                    IdentifyInfo::new(
                        AgentVersion::parse("go-ipfs/0.11.0/"),
                        protocols,
                        Vec::new(),
                    ),
                )
                .with_session(session)
                .with_behavior(behavior)
                .with_gossip_visibility(0.1);
                if i % 4 == 0 {
                    spec = spec.with_changes(vec![
                        ScheduledChange {
                            at: SimTime::from_secs(500),
                            change: MetadataChange::SetProtocols(if server {
                                ProtocolSet::go_ipfs_dht_client()
                            } else {
                                ProtocolSet::go_ipfs_dht_server()
                            }),
                        },
                        ScheduledChange {
                            at: SimTime::from_secs(900),
                            change: MetadataChange::SetAgent(AgentVersion::parse(
                                "go-ipfs/0.12.0/",
                            )),
                        },
                    ]);
                }
                spec
            })
            .collect()
    }

    fn tiny_config(seed: u64, shards: usize, threads: usize) -> FullProtocolConfig {
        let observers = vec![
            ObserverSpec::new("go-ipfs", PeerId::derived(1_000_000), DhtRole::Server, ConnLimits::new(20, 30)),
            ObserverSpec::new("hydra-h0", PeerId::derived(1_000_001), DhtRole::Server, ConnLimits::new(15, 25)),
            ObserverSpec::new("client", PeerId::derived(1_000_002), DhtRole::Client, ConnLimits::new(10, 15)),
        ];
        FullProtocolConfig::new(seed, SimDuration::from_mins(30), observers)
            .with_epoch(SimDuration::from_secs(60))
            .with_shards(shards)
            .with_threads(threads)
    }

    fn fingerprint(run: &FullProtocolRun) -> (u64, u64, Vec<usize>, usize) {
        (
            run.stats.checksum,
            run.stats.observations,
            run.output.logs.iter().map(|l| l.events().count()).collect(),
            run.output.ground_truth.events.len(),
        )
    }

    #[test]
    fn one_shard_run_matches_reference_exactly() {
        let reference = run_reference(&tiny_config(42, 1, 1), tiny_population(40, 7));
        let sharded = run_full_protocol(&tiny_config(42, 1, 1), tiny_population(40, 7));
        assert!(reference.stats.observations > 0, "campaign produced no observations");
        assert_eq!(fingerprint(&reference), fingerprint(&sharded));
        assert_eq!(
            reference.output.ground_truth.events,
            sharded.output.ground_truth.events
        );
        for (a, b) in reference.output.logs.iter().zip(&sharded.output.logs) {
            assert_eq!(a.observer, b.observer);
            let (av, bv): (Vec<_>, Vec<_>) = (a.events().collect(), b.events().collect());
            assert_eq!(av, bv);
        }
    }

    #[test]
    fn trace_is_invariant_across_shard_counts() {
        let reference = run_reference(&tiny_config(99, 1, 1), tiny_population(50, 11));
        for shards in [2usize, 4, 8] {
            let sharded = run_full_protocol(&tiny_config(99, shards, 1), tiny_population(50, 11));
            assert_eq!(
                fingerprint(&reference),
                fingerprint(&sharded),
                "shard count {shards} diverged from the reference trace"
            );
            assert_eq!(
                reference.output.ground_truth.events,
                sharded.output.ground_truth.events
            );
        }
    }

    #[test]
    fn trace_is_invariant_across_thread_counts() {
        let one = run_full_protocol(&tiny_config(7, 4, 1), tiny_population(48, 3));
        let many = run_full_protocol(&tiny_config(7, 4, 8), tiny_population(48, 3));
        assert_eq!(fingerprint(&one), fingerprint(&many));
        assert_eq!(one.output.ground_truth.events, many.output.ground_truth.events);
    }

    #[test]
    fn sharded_run_actually_crosses_shards() {
        let run = run_full_protocol(&tiny_config(5, 2, 1), tiny_population(40, 13));
        assert!(run.stats.epochs > 0, "no epochs executed");
        assert!(run.stats.mailbox_events > 0, "no mailbox traffic");
        assert!(
            run.stats.cross_shard_events > 0,
            "two shards exchanged no cross-shard events"
        );
    }

    #[test]
    fn reference_driver_reports_no_mailbox_traffic() {
        let run = run_reference(&tiny_config(5, 4, 4), tiny_population(20, 13));
        assert_eq!(run.stats.epochs, 0);
        assert_eq!(run.stats.mailbox_events, 0);
        assert_eq!(run.stats.cross_shard_events, 0);
        assert!(run.stats.sim_events > 0);
    }

    #[test]
    fn metadata_changes_surface_in_observer_logs() {
        let run = run_reference(&tiny_config(21, 1, 1), tiny_population(40, 7));
        let roles = run
            .output
            .ground_truth
            .events
            .iter()
            .filter(|e| matches!(e, GroundTruthEvent::RoleChanged { .. }))
            .count();
        assert!(roles > 0, "population scripted role flips but none fired");
        let identifies: usize = run
            .output
            .logs
            .iter()
            .map(|l| {
                l.events()
                    .filter(|e| matches!(e, crate::events::ObservedEvent::IdentifyReceived { .. }))
                    .count()
            })
            .sum();
        assert!(identifies > 0, "no identify exchanges were observed");
    }

    #[test]
    fn derive_seed_separates_domains_and_indices() {
        let a = derive_seed(1, PEER_RNG_DOMAIN, 0);
        let b = derive_seed(1, PEER_RNG_DOMAIN, 1);
        let c = derive_seed(1, OBSERVER_RNG_DOMAIN, 0);
        let d = derive_seed(2, PEER_RNG_DOMAIN, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}

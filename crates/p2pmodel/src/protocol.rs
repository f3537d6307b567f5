//! Protocol identifiers and protocol sets.
//!
//! Peers announce the protocols they speak as part of the identify exchange.
//! The paper uses this information to classify peers (a peer announcing
//! `/ipfs/kad/1.0.0` is a DHT-Server), to find anomalies (go-ipfs agents that
//! do not support Bitswap but do support the storm botnet's `sbptp`
//! protocol), and to count role switches (peers adding/removing the kad or
//! autonat announcement). Fig. 4 is a histogram over these identifiers.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A protocol identifier string such as `/ipfs/kad/1.0.0`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProtocolId(String);

impl ProtocolId {
    /// Creates a protocol identifier from a string.
    pub fn new(id: impl Into<String>) -> Self {
        ProtocolId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ProtocolId {
    fn from(s: &str) -> Self {
        ProtocolId::new(s)
    }
}

impl From<String> for ProtocolId {
    fn from(s: String) -> Self {
        ProtocolId::new(s)
    }
}

impl AsRef<str> for ProtocolId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Lets sets of [`ProtocolId`]s be probed by `&str` without allocating. Sound
/// because the derived `Eq`, `Ord` and `Hash` all delegate to the string.
impl Borrow<str> for ProtocolId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Well-known protocol identifier strings observed in the paper (Fig. 4).
pub mod well_known {
    /// Kademlia DHT (announcing it makes a peer a DHT-Server).
    pub const KAD: &str = "/ipfs/kad/1.0.0";
    /// LAN-scoped Kademlia DHT.
    pub const LAN_KAD: &str = "/ipfs/lan/kad/1.0.0";
    /// Identify.
    pub const ID: &str = "/ipfs/id/1.0.0";
    /// Identify push.
    pub const ID_PUSH: &str = "/ipfs/id/push/1.0.0";
    /// Identify delta.
    pub const ID_DELTA: &str = "/p2p/id/delta/1.0.0";
    /// Ping.
    pub const PING: &str = "/ipfs/ping/1.0.0";
    /// Bitswap (unversioned legacy id).
    pub const BITSWAP: &str = "/ipfs/bitswap";
    /// Bitswap 1.0.0.
    pub const BITSWAP_1_0: &str = "/ipfs/bitswap/1.0.0";
    /// Bitswap 1.1.0.
    pub const BITSWAP_1_1: &str = "/ipfs/bitswap/1.1.0";
    /// Bitswap 1.2.0.
    pub const BITSWAP_1_2: &str = "/ipfs/bitswap/1.2.0";
    /// Gossipsub 1.0.
    pub const MESHSUB_1_0: &str = "/meshsub/1.0.0";
    /// Gossipsub 1.1.
    pub const MESHSUB_1_1: &str = "/meshsub/1.1.0";
    /// Floodsub.
    pub const FLOODSUB: &str = "/floodsub/1.0.0";
    /// AutoNAT (announcement flaps in the paper's observations).
    pub const AUTONAT: &str = "/libp2p/autonat/1.0.0";
    /// Circuit relay v1.
    pub const RELAY_V1: &str = "/libp2p/circuit/relay/0.1.0";
    /// Circuit relay v2 (stop).
    pub const RELAY_V2_STOP: &str = "/libp2p/circuit/relay/0.2.0/stop";
    /// libp2p fetch.
    pub const FETCH: &str = "/libp2p/fetch/0.0.1";
    /// The storm botnet's protocol, also announced by suspicious go-ipfs
    /// v0.8.0 agents that hide their Bitswap support.
    pub const SBPTP: &str = "/sbptp/1.0.0";
    /// storm file-sharing protocol, v1.
    pub const SFST_1: &str = "/sfst/1.0.0";
    /// storm file-sharing protocol, v2.
    pub const SFST_2: &str = "/sfst/2.0.0";
    /// The ioi dial protocol.
    pub const IOI_DIAL: &str = "/ioi/dial/1.0.0";
    /// The ioi portssub protocol.
    pub const IOI_PORTSSUB: &str = "/ioi/portssub/1.0.0";
    /// The experimental `/x/` prefix.
    pub const X: &str = "/x/";
}

/// The set of protocols a peer announces.
///
/// Clones share storage: the set sits behind an [`Arc`] and is copied only
/// when a clone is mutated (`insert`, `remove`, `extend`). The preset
/// constructors build each profile once per process and hand out clones, so
/// a population of millions of go-ipfs peers holds a handful of sets rather
/// than one per peer. Equality, hashing, `Debug` and iteration order are
/// those of the inner [`BTreeSet`].
///
/// # Example
///
/// ```
/// use p2pmodel::ProtocolSet;
///
/// let server = ProtocolSet::go_ipfs_dht_server();
/// assert!(server.is_dht_server());
/// assert!(server.supports_bitswap());
///
/// let client = ProtocolSet::go_ipfs_dht_client();
/// assert!(!client.is_dht_server());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ProtocolSet {
    protocols: Arc<BTreeSet<ProtocolId>>,
}

/// Returns a clone of the preset set cached in `cell`, building it from
/// `protocols` on first use.
fn preset(cell: &'static OnceLock<ProtocolSet>, protocols: &[&str]) -> ProtocolSet {
    cell.get_or_init(|| protocols.iter().copied().collect()).clone()
}

impl ProtocolSet {
    /// Creates an empty protocol set.
    pub fn new() -> Self {
        ProtocolSet::default()
    }

    /// The baseline protocols every go-ipfs client announces.
    pub fn go_ipfs_base() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        use well_known::*;
        preset(
            &SET,
            &[
                ID, ID_PUSH, PING, BITSWAP, BITSWAP_1_0, BITSWAP_1_1, BITSWAP_1_2, MESHSUB_1_0,
                MESHSUB_1_1, FLOODSUB, AUTONAT, RELAY_V1,
            ],
        )
    }

    /// The protocol set of a go-ipfs DHT-Server (base + kad + lan kad).
    pub fn go_ipfs_dht_server() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        SET.get_or_init(|| {
            let mut set = Self::go_ipfs_base();
            set.insert(well_known::KAD);
            set.insert(well_known::LAN_KAD);
            set
        })
        .clone()
    }

    /// The protocol set of a go-ipfs DHT-Client (base, no kad announcement).
    pub fn go_ipfs_dht_client() -> Self {
        Self::go_ipfs_base()
    }

    /// The minimal protocol set of a hydra-booster head: DHT routing without
    /// Bitswap or pubsub.
    pub fn hydra_head() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        use well_known::*;
        preset(&SET, &[ID, PING, KAD])
    }

    /// The protocol set of a typical DHT crawler: identify + kad queries only.
    pub fn crawler() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        use well_known::*;
        preset(&SET, &[ID, PING, KAD])
    }

    /// The protocol set of a storm (IPStorm botnet) node: identify, kad and
    /// the storm-specific protocols, no Bitswap.
    pub fn storm_node() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        use well_known::*;
        preset(&SET, &[ID, PING, KAD, SBPTP, SFST_1, SFST_2])
    }

    /// The anomalous go-ipfs v0.8.0 profile reported in the paper: claims to
    /// be go-ipfs but announces `sbptp` instead of Bitswap.
    pub fn disguised_storm() -> Self {
        static SET: OnceLock<ProtocolSet> = OnceLock::new();
        use well_known::*;
        preset(&SET, &[ID, ID_PUSH, PING, KAD, MESHSUB_1_0, AUTONAT, RELAY_V1, SBPTP])
    }

    /// Number of announced protocols.
    pub fn len(&self) -> usize {
        self.protocols.len()
    }

    /// Whether the set is empty (no protocol information exchanged).
    pub fn is_empty(&self) -> bool {
        self.protocols.is_empty()
    }

    /// Adds a protocol; returns whether it was newly inserted.
    pub fn insert(&mut self, protocol: impl Into<ProtocolId>) -> bool {
        let protocol = protocol.into();
        if self.protocols.contains(&protocol) {
            return false;
        }
        Arc::make_mut(&mut self.protocols).insert(protocol)
    }

    /// Removes a protocol; returns whether it was present.
    pub fn remove(&mut self, protocol: &str) -> bool {
        self.contains(protocol) && Arc::make_mut(&mut self.protocols).remove(protocol)
    }

    /// Whether the given protocol is announced.
    pub fn contains(&self, protocol: &str) -> bool {
        self.protocols.contains(protocol)
    }

    /// Whether the peer announces the IPFS Kademlia protocol, i.e. acts as a
    /// DHT-Server.
    pub fn is_dht_server(&self) -> bool {
        self.contains(well_known::KAD)
    }

    /// Whether any Bitswap variant is announced.
    pub fn supports_bitswap(&self) -> bool {
        use well_known::*;
        self.contains(BITSWAP)
            || self.contains(BITSWAP_1_0)
            || self.contains(BITSWAP_1_1)
            || self.contains(BITSWAP_1_2)
    }

    /// Whether AutoNAT is announced.
    pub fn supports_autonat(&self) -> bool {
        self.contains(well_known::AUTONAT)
    }

    /// Whether any storm-specific protocol is announced.
    pub fn has_storm_markers(&self) -> bool {
        use well_known::*;
        self.contains(SBPTP) || self.contains(SFST_1) || self.contains(SFST_2)
    }

    /// Iterates over the announced protocols in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &ProtocolId> {
        self.protocols.iter()
    }

    /// Protocols present in `self` but not in `other` and vice versa, i.e.
    /// the symmetric difference — the "announcement changes" counted in
    /// Section IV-B.
    pub fn diff(&self, other: &ProtocolSet) -> Vec<ProtocolId> {
        self.protocols
            .symmetric_difference(&other.protocols)
            .cloned()
            .collect()
    }
}

impl<P: Into<ProtocolId>> FromIterator<P> for ProtocolSet {
    fn from_iter<I: IntoIterator<Item = P>>(iter: I) -> Self {
        ProtocolSet {
            protocols: Arc::new(iter.into_iter().map(Into::into).collect()),
        }
    }
}

impl<P: Into<ProtocolId>> Extend<P> for ProtocolSet {
    fn extend<I: IntoIterator<Item = P>>(&mut self, iter: I) {
        Arc::make_mut(&mut self.protocols).extend(iter.into_iter().map(Into::into));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(set: &ProtocolSet) -> u64 {
        let mut hasher = DefaultHasher::new();
        set.hash(&mut hasher);
        hasher.finish()
    }

    /// Every preset next to the protocol list it must hold.
    fn presets() -> Vec<(ProtocolSet, Vec<&'static str>)> {
        use well_known::*;
        let base = vec![
            ID, ID_PUSH, PING, BITSWAP, BITSWAP_1_0, BITSWAP_1_1, BITSWAP_1_2, MESHSUB_1_0,
            MESHSUB_1_1, FLOODSUB, AUTONAT, RELAY_V1,
        ];
        let mut server = base.clone();
        server.extend([KAD, LAN_KAD]);
        vec![
            (ProtocolSet::go_ipfs_base(), base.clone()),
            (ProtocolSet::go_ipfs_dht_server(), server),
            (ProtocolSet::go_ipfs_dht_client(), base),
            (ProtocolSet::hydra_head(), vec![ID, PING, KAD]),
            (ProtocolSet::crawler(), vec![ID, PING, KAD]),
            (ProtocolSet::storm_node(), vec![ID, PING, KAD, SBPTP, SFST_1, SFST_2]),
            (
                ProtocolSet::disguised_storm(),
                vec![ID, ID_PUSH, PING, KAD, MESHSUB_1_0, AUTONAT, RELAY_V1, SBPTP],
            ),
        ]
    }

    #[test]
    fn mutating_a_preset_clone_leaves_the_preset_unchanged() {
        for (preset, _) in presets() {
            let mut grown = preset.clone();
            assert!(grown.insert("/x/added/1.0.0"));
            assert!(grown.contains("/x/added/1.0.0"));
            let mut shrunk = preset.clone();
            let first = preset.iter().next().expect("presets are non-empty").clone();
            assert!(shrunk.remove(first.as_str()));
            let mut extended = preset.clone();
            extended.extend(["/x/extended/1.0.0"]);

            assert!(!preset.contains("/x/added/1.0.0"));
            assert!(preset.contains(first.as_str()));
            assert_eq!(grown.len(), preset.len() + 1);
            assert_eq!(shrunk.len(), preset.len() - 1);
            assert_eq!(extended.len(), preset.len() + 1);
        }
        // Later preset calls still hand out the unmodified profiles.
        for (preset, protocols) in presets() {
            assert_eq!(preset.len(), protocols.len());
            assert!(protocols.iter().all(|p| preset.contains(p)));
        }
    }

    #[test]
    fn presets_equal_and_hash_like_collected_sets() {
        for (preset, protocols) in presets() {
            let collected: ProtocolSet = protocols.iter().copied().collect();
            assert_eq!(preset, collected);
            assert_eq!(hash_of(&preset), hash_of(&collected));
            assert_eq!(format!("{preset:?}"), format!("{collected:?}"));
            assert!(preset.iter().eq(collected.iter()));
        }
    }

    #[test]
    fn absent_protocols_are_neither_contained_nor_removed() {
        for (preset, _) in presets() {
            let mut set = preset.clone();
            assert!(!set.contains("/not/announced/1.0.0"));
            assert!(!set.remove("/not/announced/1.0.0"));
            assert_eq!(set, preset);
        }
        let mut empty = ProtocolSet::new();
        assert!(!empty.contains(well_known::KAD));
        assert!(!empty.remove(well_known::KAD));
    }

    #[test]
    fn go_ipfs_profiles_have_expected_roles() {
        let server = ProtocolSet::go_ipfs_dht_server();
        assert!(server.is_dht_server());
        assert!(server.supports_bitswap());
        assert!(server.supports_autonat());
        assert!(!server.has_storm_markers());

        let client = ProtocolSet::go_ipfs_dht_client();
        assert!(!client.is_dht_server());
        assert!(client.supports_bitswap());
    }

    #[test]
    fn hydra_and_crawler_are_dht_servers_without_bitswap() {
        for set in [ProtocolSet::hydra_head(), ProtocolSet::crawler()] {
            assert!(set.is_dht_server());
            assert!(!set.supports_bitswap());
        }
    }

    #[test]
    fn storm_profiles_carry_markers() {
        assert!(ProtocolSet::storm_node().has_storm_markers());
        let disguised = ProtocolSet::disguised_storm();
        assert!(disguised.has_storm_markers());
        assert!(!disguised.supports_bitswap(), "the paper's anomaly: go-ipfs without bitswap");
        assert!(disguised.is_dht_server());
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = ProtocolSet::new();
        assert!(set.is_empty());
        assert!(set.insert(well_known::KAD));
        assert!(!set.insert(well_known::KAD));
        assert!(set.contains(well_known::KAD));
        assert_eq!(set.len(), 1);
        assert!(set.remove(well_known::KAD));
        assert!(!set.remove(well_known::KAD));
        assert!(!set.is_dht_server());
    }

    #[test]
    fn diff_is_symmetric_difference() {
        let server = ProtocolSet::go_ipfs_dht_server();
        let client = ProtocolSet::go_ipfs_dht_client();
        let diff = server.diff(&client);
        assert_eq!(diff.len(), 2);
        assert!(diff.iter().any(|p| p.as_str() == well_known::KAD));
        assert!(diff.iter().any(|p| p.as_str() == well_known::LAN_KAD));
        assert_eq!(client.diff(&server).len(), 2);
        assert!(server.diff(&server).is_empty());
    }

    #[test]
    fn protocol_id_conversions() {
        let a: ProtocolId = "/ipfs/kad/1.0.0".into();
        let b = ProtocolId::new(String::from("/ipfs/kad/1.0.0"));
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "/ipfs/kad/1.0.0");
        assert_eq!(a.as_ref(), "/ipfs/kad/1.0.0");
        assert_eq!(a.to_string(), "/ipfs/kad/1.0.0");
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let set = ProtocolSet::go_ipfs_dht_server();
        let listed: Vec<&ProtocolId> = set.iter().collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    /// Generates a random protocol-id-like string over `[a-z/0-9.]`.
    fn random_protocol(rng: &mut simclock::SimRng) -> String {
        const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz/0123456789.";
        let len = rng.uniform_u64(1, 21) as usize;
        (0..len)
            .map(|_| CHARSET[rng.index(CHARSET.len())] as char)
            .collect()
    }

    fn random_protocol_set(rng: &mut simclock::SimRng, max: usize) -> Vec<String> {
        let count = rng.index(max + 1);
        (0..count).map(|_| random_protocol(rng)).collect()
    }

    #[test]
    fn diff_with_self_is_empty() {
        let mut rng = simclock::SimRng::seed_from(0x9207);
        for _ in 0..128 {
            let protocols = random_protocol_set(&mut rng, 19);
            let set: ProtocolSet = protocols.iter().map(String::as_str).collect();
            assert!(set.diff(&set).is_empty());
        }
    }

    #[test]
    fn toggling_kad_toggles_server_role() {
        let mut rng = simclock::SimRng::seed_from(0x9208);
        for _ in 0..128 {
            let protocols = random_protocol_set(&mut rng, 9);
            let mut set: ProtocolSet = protocols.iter().map(String::as_str).collect();
            set.remove(well_known::KAD);
            assert!(!set.is_dht_server());
            set.insert(well_known::KAD);
            assert!(set.is_dht_server());
        }
    }
}

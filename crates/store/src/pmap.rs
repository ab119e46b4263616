//! The persistent map: a 16-ary, content-addressed radix trie with
//! copy-on-write updates and `Arc` structural sharing.
//!
//! Keys are byte strings walked a nibble (4 bits) at a time, high
//! nibble first, so iteration order is plain lexicographic byte order.
//! Every node carries the SHA-256 **content address** of its subtree —
//! the same domain-separated hashing discipline as `pvr-mht`'s sparse
//! trie (`H(tag ‖ canonical encoding)`) — which is what makes O(1)
//! snapshots, hash-pruned diffs, and integrity-checked dumps all fall
//! out of one structure:
//!
//! * two subtrees with equal hashes are equal (collision-resistance),
//!   so [`diff`] skips shared state without touching it;
//! * a node's address doubles as its identity in the on-disk dump, so
//!   snapshots deduplicate against each other for free;
//! * the loader re-derives every address and refuses mismatches, so a
//!   flipped bit anywhere is caught at the node that owns it.

use pvr_crypto::encoding::Wire;
use pvr_crypto::sha256::{sha256_concat, Digest, Sha256};
use std::sync::Arc;

/// Children per node: one per key nibble value.
pub(crate) const FANOUT: usize = 16;

/// One trie node. Immutable after construction; shared via `Arc`.
#[derive(Debug)]
pub(crate) struct Node {
    /// Value stored at exactly this key (the nibble path to the node).
    pub(crate) value: Option<Vec<u8>>,
    /// Child subtrees, indexed by next key nibble.
    pub(crate) children: [Option<Arc<Node>>; FANOUT],
    /// SHA-256 content address of this subtree.
    pub(crate) hash: Digest,
    /// Number of keys stored in this subtree.
    pub(crate) count: usize,
}

fn empty_children() -> [Option<Arc<Node>>; FANOUT] {
    std::array::from_fn(|_| None)
}

/// Canonical encoding a node's content address is derived from: the
/// optional value, a presence bitmap, then each present child's address
/// in nibble order. Shared verbatim with the dump format so the loader
/// verifies exactly what the hash commits to.
pub(crate) fn encode_content(
    value: &Option<Vec<u8>>,
    child_hashes: &[Option<Digest>; FANOUT],
    buf: &mut Vec<u8>,
) {
    value.encode(buf);
    let mut bitmap = 0u16;
    for (i, h) in child_hashes.iter().enumerate() {
        if h.is_some() {
            bitmap |= 1 << i;
        }
    }
    bitmap.encode(buf);
    for h in child_hashes.iter().flatten() {
        h.encode(buf);
    }
}

/// The content address for a node with the given parts:
/// `SHA-256("pvr.store.node" ‖ encode_content(..))`, streamed into the
/// hasher part by part so no node allocates to be hashed.
pub(crate) fn content_address(
    value: Option<&[u8]>,
    child_hashes: &[Option<Digest>; FANOUT],
) -> Digest {
    let mut h = Sha256::new();
    h.update(b"pvr.store.node");
    match value {
        None => h.update(&[0]),
        Some(v) => h.update(&[1]).update(&(v.len() as u32).to_be_bytes()).update(v),
    };
    let mut bitmap = 0u16;
    for (i, c) in child_hashes.iter().enumerate() {
        if c.is_some() {
            bitmap |= 1 << i;
        }
    }
    h.update(&bitmap.to_be_bytes());
    for c in child_hashes.iter().flatten() {
        h.update(&c.0);
    }
    h.finalize()
}

impl Node {
    /// Builds a node, deriving its hash and subtree count.
    pub(crate) fn new(value: Option<Vec<u8>>, children: [Option<Arc<Node>>; FANOUT]) -> Node {
        let child_hashes: [Option<Digest>; FANOUT] =
            std::array::from_fn(|i| children[i].as_ref().map(|c| c.hash));
        let hash = content_address(value.as_deref(), &child_hashes);
        Node::with_hash(value, children, hash)
    }

    /// Builds a node whose content address `hash` the caller has
    /// already derived from exactly these parts.
    pub(crate) fn with_hash(
        value: Option<Vec<u8>>,
        children: [Option<Arc<Node>>; FANOUT],
        hash: Digest,
    ) -> Node {
        let count = usize::from(value.is_some())
            + children.iter().flatten().map(|c| c.count).sum::<usize>();
        Node { value, children, hash, count }
    }
}

/// The content address of the empty map.
fn empty_hash() -> Digest {
    sha256_concat(&[b"pvr.store.empty"])
}

/// The `i`-th nibble of `key`, high nibble of each byte first.
fn nibble(key: &[u8], i: usize) -> usize {
    let b = key[i / 2];
    if i % 2 == 0 {
        (b >> 4) as usize
    } else {
        (b & 0x0f) as usize
    }
}

fn nibbles_to_bytes(nibbles: &[u8]) -> Vec<u8> {
    debug_assert!(nibbles.len() % 2 == 0, "byte keys have an even nibble count");
    nibbles.chunks_exact(2).map(|p| (p[0] << 4) | p[1]).collect()
}

/// A persistent byte-key → byte-value map.
///
/// `Clone` is an O(1) snapshot: both versions share all state and
/// neither can observe the other's subsequent updates (updates return
/// *new* maps, they never mutate).
#[derive(Clone, Debug, Default)]
pub struct PMap {
    root: Option<Arc<Node>>,
}

impl PMap {
    /// The empty map.
    pub fn new() -> PMap {
        PMap::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.root.as_ref().map_or(0, |n| n.count)
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The SHA-256 content address of the whole map. Equal addresses
    /// mean equal contents; the empty map has a distinguished address.
    pub fn root_hash(&self) -> Digest {
        self.root.as_ref().map_or_else(empty_hash, |n| n.hash)
    }

    /// Looks up `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let mut node = self.root.as_ref()?;
        for i in 0..key.len() * 2 {
            node = node.children[nibble(key, i)].as_ref()?;
        }
        node.value.as_deref()
    }

    /// Returns a new map with `key → value` set. Copy-on-write: only
    /// the nibble path to `key` is rebuilt; if the stored value is
    /// already byte-equal, the *same* map is returned (full sharing),
    /// which is what makes periodic RIB syncs cheap between changes.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> PMap {
        PMap { root: Some(insert_rec(self.root.as_ref(), key, 0, value)) }
    }

    /// Returns a new map without `key`. Absent keys return a map
    /// sharing all state with `self`.
    pub fn remove(&self, key: &[u8]) -> PMap {
        match &self.root {
            None => self.clone(),
            Some(root) => match remove_rec(root, key, 0) {
                None => self.clone(),
                Some(new_root) => PMap { root: new_root },
            },
        }
    }

    /// The map holding exactly `entries`, sharing with `self` every
    /// subtree whose contents `entries` leave unchanged.
    ///
    /// One bottom-up pass over the slice, partitioned by nibble: a node
    /// whose value and child addresses equal `self`'s node at the same
    /// path *is* that node (the same `Arc`, neither hashed nor
    /// allocated); every other node is hashed once. Comparing the cells
    /// costs O(entries × key length); hashing and allocation cost
    /// O(changed nodes). The result equals applying the same changes
    /// with [`insert`](Self::insert) and [`remove`](Self::remove), node
    /// for node.
    ///
    /// # Panics
    ///
    /// If the keys are not strictly ascending (unsorted or duplicated).
    pub fn replace_sorted<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, entries: &[(K, V)]) -> PMap {
        assert_strictly_ascending(entries);
        PMap { root: rebuild(self.root.as_ref(), entries, 0) }
    }

    /// `self.replace_sorted(entries).root_hash()`, computed by the same
    /// pass without building the map: no node is allocated.
    ///
    /// # Panics
    ///
    /// If the keys are not strictly ascending (unsorted or duplicated).
    pub fn root_hash_sorted<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, entries: &[(K, V)]) -> Digest {
        assert_strictly_ascending(entries);
        rebuild(self.root.as_ref(), entries, 0).unwrap_or_else(empty_hash)
    }

    /// Visits every `(key, value)` pair in lexicographic key order.
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &[u8])) {
        if let Some(root) = &self.root {
            walk(root, &mut Vec::new(), &mut f);
        }
    }

    /// Visits every pair whose key starts with `prefix` (whole bytes),
    /// in lexicographic key order.
    pub fn for_each_under(&self, prefix: &[u8], mut f: impl FnMut(&[u8], &[u8])) {
        let Some(mut node) = self.root.as_ref() else { return };
        for i in 0..prefix.len() * 2 {
            match node.children[nibble(prefix, i)].as_ref() {
                Some(c) => node = c,
                None => return,
            }
        }
        let mut nibbles: Vec<u8> = (0..prefix.len() * 2).map(|i| nibble(prefix, i) as u8).collect();
        walk(node, &mut nibbles, &mut f);
    }

    /// All entries, sorted by key.
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    pub(crate) fn root(&self) -> Option<&Arc<Node>> {
        self.root.as_ref()
    }

    pub(crate) fn from_root(root: Option<Arc<Node>>) -> PMap {
        PMap { root }
    }
}

impl PartialEq for PMap {
    fn eq(&self, other: &PMap) -> bool {
        self.root_hash() == other.root_hash()
    }
}

impl Eq for PMap {}

fn insert_rec(node: Option<&Arc<Node>>, key: &[u8], depth: usize, value: &[u8]) -> Arc<Node> {
    if depth == key.len() * 2 {
        return match node {
            Some(n) if n.value.as_deref() == Some(value) => Arc::clone(n),
            Some(n) => Arc::new(Node::new(Some(value.to_vec()), n.children.clone())),
            None => Arc::new(Node::new(Some(value.to_vec()), empty_children())),
        };
    }
    let idx = nibble(key, depth);
    let old_child = node.and_then(|n| n.children[idx].as_ref());
    let new_child = insert_rec(old_child, key, depth + 1, value);
    match node {
        Some(n) => {
            if let Some(old) = old_child {
                if Arc::ptr_eq(old, &new_child) {
                    return Arc::clone(n); // no-op insert: share the whole subtree
                }
            }
            let mut children = n.children.clone();
            children[idx] = Some(new_child);
            Arc::new(Node::new(n.value.clone(), children))
        }
        None => {
            let mut children = empty_children();
            children[idx] = Some(new_child);
            Arc::new(Node::new(None, children))
        }
    }
}

/// `None` = key absent (caller keeps the original map); `Some(new)` =
/// subtree changed, `new == None` prunes the now-empty subtree.
fn remove_rec(node: &Arc<Node>, key: &[u8], depth: usize) -> Option<Option<Arc<Node>>> {
    if depth == key.len() * 2 {
        node.value.as_ref()?;
        if node.count == 1 {
            return Some(None);
        }
        return Some(Some(Arc::new(Node::new(None, node.children.clone()))));
    }
    let idx = nibble(key, depth);
    let child = node.children[idx].as_ref()?;
    let new_child = remove_rec(child, key, depth + 1)?;
    let mut children = node.children.clone();
    children[idx] = new_child;
    if node.value.is_none() && children.iter().all(|c| c.is_none()) {
        return Some(None);
    }
    Some(Some(Arc::new(Node::new(node.value.clone(), children))))
}

fn assert_strictly_ascending<K: AsRef<[u8]>, V>(entries: &[(K, V)]) {
    assert!(
        entries.windows(2).all(|w| w[0].0.as_ref() < w[1].0.as_ref()),
        "PMap::replace_sorted needs strictly ascending keys"
    );
}

/// What [`rebuild`] produces per subtree: the node itself, or only its
/// content address.
trait Rebuilt: Sized {
    fn address(&self) -> Digest;
    /// The base subtree, unchanged.
    fn reuse(base: &Arc<Node>) -> Self;
    /// A changed node with its freshly derived address.
    fn make(value: Option<&[u8]>, children: [Option<Self>; FANOUT], hash: Digest) -> Self;
}

impl Rebuilt for Arc<Node> {
    fn address(&self) -> Digest {
        self.hash
    }
    fn reuse(base: &Arc<Node>) -> Self {
        Arc::clone(base)
    }
    fn make(value: Option<&[u8]>, children: [Option<Self>; FANOUT], hash: Digest) -> Self {
        Arc::new(Node::with_hash(value.map(<[u8]>::to_vec), children, hash))
    }
}

impl Rebuilt for Digest {
    fn address(&self) -> Digest {
        *self
    }
    fn reuse(base: &Arc<Node>) -> Self {
        base.hash
    }
    fn make(_: Option<&[u8]>, _: [Option<Self>; FANOUT], hash: Digest) -> Self {
        hash
    }
}

/// The subtree at nibble `depth` holding exactly `entries` (strictly
/// ascending, all sharing the path's first `depth` nibbles), reusing
/// `base` where nothing under it changed. `None` for no entries.
fn rebuild<R: Rebuilt, K: AsRef<[u8]>, V: AsRef<[u8]>>(
    base: Option<&Arc<Node>>,
    entries: &[(K, V)],
    depth: usize,
) -> Option<R> {
    // The key ending here sorts before every key extending it.
    let (value, mut rest) = match entries.split_first() {
        None => return None,
        Some(((k, v), rest)) if k.as_ref().len() * 2 == depth => (Some(v.as_ref()), rest),
        Some(_) => (None, entries),
    };
    let mut children: [Option<R>; FANOUT] = std::array::from_fn(|_| None);
    while let Some((k, _)) = rest.first() {
        let idx = nibble(k.as_ref(), depth);
        let (group, tail) =
            rest.split_at(rest.partition_point(|(k, _)| nibble(k.as_ref(), depth) == idx));
        children[idx] = rebuild(base.and_then(|b| b.children[idx].as_ref()), group, depth + 1);
        rest = tail;
    }
    let child_hashes = children.each_ref().map(|c| c.as_ref().map(R::address));
    if let Some(b) = base {
        let same_children =
            b.children.iter().zip(&child_hashes).all(|(c, h)| c.as_ref().map(|c| c.hash) == *h);
        if same_children && b.value.as_deref() == value {
            return Some(R::reuse(b));
        }
    }
    let hash = content_address(value, &child_hashes);
    Some(R::make(value, children, hash))
}

fn walk(node: &Node, nibbles: &mut Vec<u8>, f: &mut impl FnMut(&[u8], &[u8])) {
    if let Some(v) = &node.value {
        let key = nibbles_to_bytes(nibbles);
        f(&key, v);
    }
    for (i, child) in node.children.iter().enumerate() {
        if let Some(c) = child {
            nibbles.push(i as u8);
            walk(c, nibbles, f);
            nibbles.pop();
        }
    }
}

/// One difference between two snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffEntry {
    /// Key present in the new snapshot only.
    Added {
        /// The key.
        key: Vec<u8>,
        /// Its value in the new snapshot.
        value: Vec<u8>,
    },
    /// Key present in the old snapshot only.
    Removed {
        /// The key.
        key: Vec<u8>,
        /// Its value in the old snapshot.
        value: Vec<u8>,
    },
    /// Key present in both with different values.
    Changed {
        /// The key.
        key: Vec<u8>,
        /// The old value.
        old: Vec<u8>,
        /// The new value.
        new: Vec<u8>,
    },
}

impl DiffEntry {
    /// The key this entry is about.
    pub fn key(&self) -> &[u8] {
        match self {
            DiffEntry::Added { key, .. }
            | DiffEntry::Removed { key, .. }
            | DiffEntry::Changed { key, .. } => key,
        }
    }
}

/// Structural diff from `old` to `new`, in lexicographic key order.
///
/// Subtrees shared between the snapshots (by pointer or by content
/// address) are skipped without being visited, so the cost scales with
/// the churn between the snapshots rather than with table size.
pub fn diff(old: &PMap, new: &PMap) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_rec(old.root(), new.root(), &mut Vec::new(), &mut out);
    out
}

fn diff_rec(
    old: Option<&Arc<Node>>,
    new: Option<&Arc<Node>>,
    nibbles: &mut Vec<u8>,
    out: &mut Vec<DiffEntry>,
) {
    match (old, new) {
        (None, None) => {}
        (Some(o), Some(n)) => {
            if Arc::ptr_eq(o, n) || o.hash == n.hash {
                return; // shared subtree: provably identical
            }
            match (&o.value, &n.value) {
                (Some(ov), Some(nv)) if ov != nv => out.push(DiffEntry::Changed {
                    key: nibbles_to_bytes(nibbles),
                    old: ov.clone(),
                    new: nv.clone(),
                }),
                (Some(ov), None) => out
                    .push(DiffEntry::Removed { key: nibbles_to_bytes(nibbles), value: ov.clone() }),
                (None, Some(nv)) => {
                    out.push(DiffEntry::Added { key: nibbles_to_bytes(nibbles), value: nv.clone() })
                }
                _ => {}
            }
            for i in 0..FANOUT {
                nibbles.push(i as u8);
                diff_rec(o.children[i].as_ref(), n.children[i].as_ref(), nibbles, out);
                nibbles.pop();
            }
        }
        (Some(o), None) => walk(o, nibbles, &mut |k, v| {
            out.push(DiffEntry::Removed { key: k.to_vec(), value: v.to_vec() })
        }),
        (None, Some(n)) => walk(n, nibbles, &mut |k, v| {
            out.push(DiffEntry::Added { key: k.to_vec(), value: v.to_vec() })
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(pairs: &[(&[u8], &[u8])]) -> PMap {
        let mut m = PMap::new();
        for (k, v) in pairs {
            m = m.insert(k, v);
        }
        m
    }

    #[test]
    fn insert_get_remove() {
        let m = map_of(&[(b"abc", b"1"), (b"abd", b"2"), (b"x", b"3")]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(b"abc"), Some(b"1".as_slice()));
        assert_eq!(m.get(b"abd"), Some(b"2".as_slice()));
        assert_eq!(m.get(b"x"), Some(b"3".as_slice()));
        assert_eq!(m.get(b"ab"), None);
        assert_eq!(m.get(b"nope"), None);
        let m2 = m.remove(b"abd");
        assert_eq!(m2.len(), 2);
        assert_eq!(m2.get(b"abd"), None);
        assert_eq!(m.get(b"abd"), Some(b"2".as_slice()), "snapshots are immutable");
    }

    #[test]
    fn prefix_key_coexists_with_extension() {
        let m = map_of(&[(b"ab", b"short"), (b"abcd", b"long")]);
        assert_eq!(m.get(b"ab"), Some(b"short".as_slice()));
        assert_eq!(m.get(b"abcd"), Some(b"long".as_slice()));
        let m2 = m.remove(b"ab");
        assert_eq!(m2.get(b"ab"), None);
        assert_eq!(m2.get(b"abcd"), Some(b"long".as_slice()));
    }

    #[test]
    fn empty_key_is_a_key() {
        let m = PMap::new().insert(b"", b"root-value");
        assert_eq!(m.get(b""), Some(b"root-value".as_slice()));
        assert_eq!(m.len(), 1);
        assert!(m.remove(b"").is_empty());
    }

    #[test]
    fn noop_insert_shares_root() {
        let m = map_of(&[(b"abc", b"1"), (b"xyz", b"2")]);
        let m2 = m.insert(b"abc", b"1");
        assert_eq!(m.root_hash(), m2.root_hash());
        assert!(Arc::ptr_eq(m.root().unwrap(), m2.root().unwrap()), "no-op insert must share");
    }

    #[test]
    fn cow_shares_untouched_subtrees() {
        let m = map_of(&[(b"abc", b"1"), (b"xyz", b"2")]);
        let m2 = m.insert(b"abc", b"changed");
        // The subtree under 'x' is untouched: same child Arc.
        let x = nibble(b"xyz", 0);
        let old = m.root().unwrap().children[x].as_ref().unwrap();
        let new = m2.root().unwrap().children[x].as_ref().unwrap();
        assert!(Arc::ptr_eq(old, new), "COW update must share untouched subtrees");
        assert_ne!(m.root_hash(), m2.root_hash());
    }

    #[test]
    fn absent_remove_shares_everything() {
        let m = map_of(&[(b"abc", b"1")]);
        let m2 = m.remove(b"zzz");
        assert!(Arc::ptr_eq(m.root().unwrap(), m2.root().unwrap()));
    }

    #[test]
    fn remove_prunes_empty_chains() {
        let m = map_of(&[(b"abc", b"1")]);
        assert!(m.remove(b"abc").is_empty(), "chain to the only key must fully prune");
    }

    #[test]
    fn iteration_is_sorted() {
        let m = map_of(&[(b"b", b"2"), (b"a", b"1"), (b"ab", b"3"), (b"aa", b"4")]);
        let keys: Vec<Vec<u8>> = m.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"aa".to_vec(), b"ab".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn for_each_under_scopes_to_prefix() {
        let m = map_of(&[(b"aa1", b"1"), (b"aa2", b"2"), (b"ab1", b"3"), (b"aa", b"4")]);
        let mut got = Vec::new();
        m.for_each_under(b"aa", |k, _| got.push(k.to_vec()));
        assert_eq!(got, vec![b"aa".to_vec(), b"aa1".to_vec(), b"aa2".to_vec()]);
        let mut none = Vec::new();
        m.for_each_under(b"zz", |k, _| none.push(k.to_vec()));
        assert!(none.is_empty());
    }

    #[test]
    fn content_address_is_insertion_order_independent() {
        let a = map_of(&[(b"k1", b"v1"), (b"k2", b"v2"), (b"k3", b"v3")]);
        let b = map_of(&[(b"k3", b"v3"), (b"k1", b"v1"), (b"k2", b"v2")]);
        assert_eq!(a.root_hash(), b.root_hash());
        assert_eq!(a, b);
    }

    #[test]
    fn history_independence_through_removal() {
        // A map that took a detour through extra keys converges to the
        // same address once those keys are removed.
        let direct = map_of(&[(b"keep", b"v")]);
        let detour = map_of(&[(b"keep", b"v"), (b"temp", b"t")]).remove(b"temp");
        assert_eq!(direct.root_hash(), detour.root_hash());
    }

    #[test]
    fn diff_reports_adds_removes_changes_sorted() {
        let old = map_of(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]);
        let new = old.remove(b"a").insert(b"b", b"2'").insert(b"d", b"4");
        let d = diff(&old, &new);
        assert_eq!(
            d,
            vec![
                DiffEntry::Removed { key: b"a".to_vec(), value: b"1".to_vec() },
                DiffEntry::Changed { key: b"b".to_vec(), old: b"2".to_vec(), new: b"2'".to_vec() },
                DiffEntry::Added { key: b"d".to_vec(), value: b"4".to_vec() },
            ]
        );
    }

    #[test]
    fn diff_of_snapshots_is_empty() {
        let m = map_of(&[(b"a", b"1"), (b"b", b"2")]);
        let snap = m.clone(); // O(1) snapshot
        assert!(diff(&m, &snap).is_empty());
    }

    #[test]
    fn diff_against_empty() {
        let m = map_of(&[(b"a", b"1")]);
        assert_eq!(
            diff(&PMap::new(), &m),
            vec![DiffEntry::Added { key: b"a".to_vec(), value: b"1".to_vec() }]
        );
        assert_eq!(
            diff(&m, &PMap::new()),
            vec![DiffEntry::Removed { key: b"a".to_vec(), value: b"1".to_vec() }]
        );
    }

    #[test]
    fn empty_map_has_distinguished_hash() {
        assert_ne!(PMap::new().root_hash(), map_of(&[(b"", b"")]).root_hash());
    }

    #[test]
    fn replace_sorted_with_no_entries_is_the_empty_map() {
        let base = map_of(&[(b"a", b"1"), (b"", b"root")]);
        let none: &[(&[u8], &[u8])] = &[];
        for m in [PMap::new(), base] {
            assert!(m.replace_sorted(none).is_empty());
            assert_eq!(m.root_hash_sorted(none), PMap::new().root_hash());
        }
    }

    #[test]
    fn replace_sorted_refuses_unsorted_or_duplicate_keys() {
        let base = map_of(&[(b"a", b"1")]);
        let bad: [&[(&[u8], &[u8])]; 3] = [
            &[(b"b", b"1"), (b"a", b"2")],
            &[(b"a", b"1"), (b"a", b"1")],
            &[(b"ab", b"1"), (b"a", b"2")],
        ];
        for entries in bad {
            let built = std::panic::catch_unwind(|| base.replace_sorted(entries));
            assert!(built.is_err(), "replace_sorted accepted {entries:?}");
            let hashed = std::panic::catch_unwind(|| base.root_hash_sorted(entries));
            assert!(hashed.is_err(), "root_hash_sorted accepted {entries:?}");
        }
    }

    #[test]
    fn replace_sorted_without_changes_is_the_base() {
        let base = map_of(&[(b"abc", b"1"), (b"xyz", b"2"), (b"", b"0")]);
        let same = base.replace_sorted(&base.entries());
        assert!(Arc::ptr_eq(base.root().unwrap(), same.root().unwrap()));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Every pair of same-path subtrees with equal content addresses
        /// is one shared node.
        fn assert_unchanged_subtrees_shared(old: &Arc<Node>, new: &Arc<Node>) {
            if old.hash == new.hash {
                assert!(Arc::ptr_eq(old, new), "unchanged subtree was rebuilt");
                return;
            }
            for (o, n) in old.children.iter().zip(&new.children) {
                if let (Some(o), Some(n)) = (o, n) {
                    assert_unchanged_subtrees_shared(o, n);
                }
            }
        }

        proptest! {
            #[test]
            fn matches_btreemap(
                ops in proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 0..6),
                     proptest::option::of(proptest::collection::vec(any::<u8>(), 0..4))),
                    0..40,
                )
            ) {
                let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut m = PMap::new();
                for (key, maybe_value) in ops {
                    match maybe_value {
                        Some(v) => { model.insert(key.clone(), v.clone()); m = m.insert(&key, &v); }
                        None => { model.remove(&key); m = m.remove(&key); }
                    }
                }
                prop_assert_eq!(m.len(), model.len());
                let got = m.entries();
                let want: Vec<(Vec<u8>, Vec<u8>)> =
                    model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(got, want, "entries must match a model BTreeMap, sorted");
                // Content addressing: rebuilding from the model in sorted
                // order produces the identical root hash.
                let mut rebuilt = PMap::new();
                for (k, v) in &model {
                    rebuilt = rebuilt.insert(k, v);
                }
                prop_assert_eq!(rebuilt.root_hash(), m.root_hash());
            }

            #[test]
            fn diff_applied_to_old_yields_new(
                base in proptest::collection::btree_map(
                    proptest::collection::vec(any::<u8>(), 1..4),
                    proptest::collection::vec(any::<u8>(), 0..3), 0..12),
                extra in proptest::collection::btree_map(
                    proptest::collection::vec(any::<u8>(), 1..4),
                    proptest::collection::vec(any::<u8>(), 0..3), 0..12),
            ) {
                let mut old = PMap::new();
                for (k, v) in &base { old = old.insert(k, v); }
                let mut new = old.clone();
                for (k, v) in &extra { new = new.insert(k, v); }
                for (i, k) in base.keys().enumerate() {
                    if i % 3 == 0 { new = new.remove(k); }
                }
                let mut patched = old.clone();
                for entry in diff(&old, &new) {
                    match entry {
                        DiffEntry::Added { key, value } | DiffEntry::Changed { key, new: value, .. } =>
                            patched = patched.insert(&key, &value),
                        DiffEntry::Removed { key, .. } => patched = patched.remove(&key),
                    }
                }
                prop_assert_eq!(patched.root_hash(), new.root_hash());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn content_address_streams_the_dump_encoding(
                value in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..80)),
                present in any::<u16>(),
                seed in any::<u8>(),
            ) {
                let child_hashes: [Option<Digest>; FANOUT] = std::array::from_fn(|i| {
                    (present & (1 << i) != 0).then(|| sha256_concat(&[&[seed, i as u8]]))
                });
                let mut buf = Vec::new();
                encode_content(&value, &child_hashes, &mut buf);
                prop_assert_eq!(
                    content_address(value.as_deref(), &child_hashes),
                    sha256_concat(&[b"pvr.store.node", &buf])
                );
            }

            #[test]
            fn replace_sorted_matches_insert_and_remove(
                base in proptest::collection::btree_map(
                    proptest::collection::vec(any::<u8>(), 0..4),
                    proptest::collection::vec(any::<u8>(), 0..3), 0..24),
                fate in proptest::collection::vec(any::<u8>(), 24),
                extra in proptest::collection::btree_map(
                    proptest::collection::vec(any::<u8>(), 0..4),
                    proptest::collection::vec(any::<u8>(), 0..3), 0..6),
            ) {
                // Bytes narrowed to 16 values (both nibbles vary) so keys
                // share prefixes and whole subtrees go untouched.
                let narrow = |k: &Vec<u8>| k.iter().map(|b| b & 0x33).collect::<Vec<u8>>();
                let base: BTreeMap<Vec<u8>, Vec<u8>> =
                    base.iter().map(|(k, v)| (narrow(k), v.clone())).collect();
                // Target: each base cell is kept, changed or dropped, and
                // a few new cells are added.
                let mut target = BTreeMap::new();
                for (i, (k, v)) in base.iter().enumerate() {
                    match fate[i] % 4 {
                        0 => {}
                        1 => { target.insert(k.clone(), [v.as_slice(), b"'"].concat()); }
                        _ => { target.insert(k.clone(), v.clone()); }
                    }
                }
                for (k, v) in &extra {
                    target.insert(narrow(k), v.clone());
                }

                let mut old = PMap::new();
                for (k, v) in &base { old = old.insert(k, v); }
                let mut reference = old.clone();
                for k in base.keys().filter(|k| !target.contains_key(*k)) {
                    reference = reference.remove(k);
                }
                for (k, v) in &target { reference = reference.insert(k, v); }

                let entries: Vec<(Vec<u8>, Vec<u8>)> = target.into_iter().collect();
                let new = old.replace_sorted(&entries);
                prop_assert_eq!(new.entries(), entries.clone());
                prop_assert_eq!(new.len(), entries.len());
                prop_assert_eq!(new.root_hash(), reference.root_hash());
                prop_assert_eq!(old.root_hash_sorted(&entries), new.root_hash());
                let changes = diff(&old, &reference);
                prop_assert_eq!(diff(&old, &new), changes.clone());

                // Sharing: every subtree whose contents did not change is
                // the base's own node...
                if let (Some(o), Some(n)) = (old.root(), new.root()) {
                    assert_unchanged_subtrees_shared(o, n);
                    // ...in particular every top-level child no change
                    // falls under.
                    for i in 0..FANOUT {
                        let touched = changes.iter().any(|c| c.key().first().map(|b| (b >> 4) as usize) == Some(i));
                        if let (false, Some(oc)) = (touched, o.children[i].as_ref()) {
                            let nc = n.children[i].as_ref().expect("untouched child survives");
                            prop_assert!(Arc::ptr_eq(oc, nc), "top-level child {i} was rebuilt");
                        }
                    }
                }
            }
        }
    }
}

//! Per-protocol page-placement state for trace replay.
//!
//! A [`PlacementModel`] tracks, for one protocol, where every page of every
//! object lives and at which version — the same information the live
//! engine keeps in `PageStore`s and GDO page maps, but as a lightweight
//! state machine advanced by trace events. Each protocol evolves its own
//! placement because partial transfers (LOTEC) leave different nodes with
//! different staleness than full transfers (COTEC/OTEC) or eager pushes
//! (RC).
//!
//! Like the engine, the model pays only for the objects the trace touches:
//! an object is one compact row (protocol, page count, home) until its
//! first trace event materialises its placement state. Until then every
//! query about it is answered from the row — every page at version 0 at
//! its home ([`PageLocation::initial`]).

use std::collections::{BTreeMap, BTreeSet};

use lotec_mem::{ObjectId, PageIndex, PageLocation, TouchedSlots, Version};
use lotec_object::{ObjectRegistry, PageSet};
use lotec_sim::NodeId;

use crate::protocol::{plan_transfer, PlacementView, ProtocolKind, TransferPlan};

/// What the model records about every object up front.
#[derive(Debug, Clone, Copy)]
struct ObjectRow {
    kind: ProtocolKind,
    num_pages: u16,
    home: NodeId,
}

/// The evolving placement of one touched object.
#[derive(Debug, Clone)]
struct ObjectPlacement {
    last_holder: NodeId,
    global: Vec<Version>,
    owner: Vec<NodeId>,
    caching: BTreeSet<NodeId>,
    /// node -> per-page cached version (`None` = no copy).
    local: BTreeMap<NodeId, Vec<Option<Version>>>,
}

impl ObjectPlacement {
    /// The initial placement [`ObjectRow`] stands for: the object whole,
    /// at version 0, at its home.
    fn initial(row: ObjectRow) -> Self {
        let np = row.num_pages as usize;
        let at_home = PageLocation::initial(row.home);
        ObjectPlacement {
            last_holder: row.home,
            global: vec![at_home.version; np],
            owner: vec![at_home.node; np],
            caching: BTreeSet::from([row.home]),
            local: BTreeMap::from([(row.home, vec![Some(at_home.version); np])]),
        }
    }
}

/// One protocol's evolving view of page placement.
#[derive(Debug, Clone)]
pub struct PlacementModel {
    kind: ProtocolKind,
    rows: Vec<ObjectRow>,
    /// Placement of the objects the trace has touched, by object id.
    objects: TouchedSlots<ObjectPlacement>,
}

impl PlacementModel {
    /// Initial placement: every object whole, at version 0, at its home
    /// node; every object governed by `kind`.
    pub fn new(kind: ProtocolKind, registry: &ObjectRegistry) -> Self {
        Self::with_assignment(kind, registry, |_| kind)
    }

    /// Initial placement with a per-object protocol assignment (the
    /// per-class consistency extension): `protocol_of` maps each object's
    /// class to its governing protocol. `default` is reported by
    /// [`PlacementModel::kind`].
    pub fn with_assignment(
        default: ProtocolKind,
        registry: &ObjectRegistry,
        protocol_of: impl Fn(lotec_object::ClassId) -> ProtocolKind,
    ) -> Self {
        let rows: Vec<ObjectRow> = registry
            .objects()
            .map(|inst| ObjectRow {
                kind: protocol_of(inst.class),
                num_pages: registry.num_pages(inst.id),
                home: inst.home,
            })
            .collect();
        PlacementModel {
            kind: default,
            objects: TouchedSlots::new(rows.len()),
            rows,
        }
    }

    /// The default protocol this model evolves under (individual objects
    /// may override it via [`PlacementModel::with_assignment`]).
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The protocol governing `object` under this model's assignment.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn kind_of(&self, object: ObjectId) -> ProtocolKind {
        self.row(object).kind
    }

    /// Number of objects whose placement state has been materialised.
    pub fn materialised(&self) -> usize {
        self.objects.len()
    }

    fn row(&self, object: ObjectId) -> ObjectRow {
        self.rows[object.index() as usize]
    }

    /// The object's placement, if a trace event has touched it.
    fn obj(&self, object: ObjectId) -> Option<&ObjectPlacement> {
        self.objects.get(object.index() as usize)
    }

    /// The object's placement, materialised on first touch.
    fn obj_mut(&mut self, object: ObjectId) -> &mut ObjectPlacement {
        let row = self.row(object);
        self.objects
            .get_or_insert_with(object.index() as usize, || ObjectPlacement::initial(row))
    }

    /// Advances the model over a lock grant: plans the transfer the
    /// protocol performs for this acquisition (given the acquiring
    /// method's `prefetch` page set — the conservative prediction for
    /// LOTEC, the full page set otherwise) and applies its effects.
    ///
    /// Returns the plan so the caller can charge messages and bytes.
    pub fn on_grant(&mut self, node: NodeId, object: ObjectId, prefetch: &PageSet) -> TransferPlan {
        let kind = self.kind_of(object);
        let plan = plan_transfer(kind, &*self, node, object, prefetch);
        for (_, pages) in plan.sources() {
            self.install(node, object, pages);
        }
        // Under COTEC/OTEC the acquirer also demand-zeroes any never-written
        // pages, making it a complete current copy; record its cached
        // versions for every page.
        let o = self.obj_mut(object);
        match kind {
            ProtocolKind::Cotec | ProtocolKind::Otec | ProtocolKind::ReleaseConsistency => {
                let versions: Vec<Option<Version>> = o.global.iter().map(|&v| Some(v)).collect();
                o.local.insert(node, versions);
            }
            ProtocolKind::Lotec => {
                // Only fetched pages (plus demand-zeroed v0 pages within the
                // prefetch set) become current; `install` already recorded
                // the fetched ones. Materialize demand-zero copies for
                // prefetched v0 pages the node lacks.
                let np = o.global.len();
                let entry = o.local.entry(node).or_insert_with(|| vec![None; np]);
                for page in prefetch.iter() {
                    let idx = page.get() as usize;
                    if idx < entry.len()
                        && entry[idx].is_none()
                        && o.global[idx] == Version::INITIAL
                    {
                        entry[idx] = Some(Version::INITIAL);
                    }
                }
            }
        }
        o.caching.insert(node);
        o.last_holder = node;
        plan
    }

    /// Installs the current version of `pages` of `object` at `node` — a
    /// gather's or a demand fetch's effect on placement.
    pub(crate) fn install(&mut self, node: NodeId, object: ObjectId, pages: &[PageIndex]) {
        let ObjectPlacement { global, local, .. } = self.obj_mut(object);
        let entry = local
            .entry(node)
            .or_insert_with(|| vec![None; global.len()]);
        for page in pages {
            let idx = page.get() as usize;
            entry[idx] = Some(global[idx]);
        }
    }

    /// Advances the model over a root commit: `node` committed updates to
    /// `dirty` pages of `object`. Bumps global versions and ownership;
    /// under RC also applies the eager pushes to every other caching site
    /// and returns those sites, in node order.
    pub fn on_commit(
        &mut self,
        node: NodeId,
        object: ObjectId,
        dirty: &[PageIndex],
    ) -> Vec<NodeId> {
        let kind = self.kind_of(object);
        let o = self.obj_mut(object);
        debug_assert!(o.caching.contains(&node), "committer must cache the object");
        let np = o.global.len();
        for &page in dirty {
            let idx = page.get() as usize;
            o.global[idx] = o.global[idx].next();
            o.owner[idx] = node;
            let new_v = o.global[idx];
            o.local.entry(node).or_insert_with(|| vec![None; np])[idx] = Some(new_v);
        }
        // `last_holder` is NOT updated here: it tracks the last *grantee*.
        // A write committer is necessarily the last grantee already (the
        // write lock excluded everyone since its grant), and a read-only
        // commit changes nothing — while under read sharing several
        // families commit in arbitrary order and updating here would
        // diverge from the grant-ordered view the engine maintains.

        if !kind.pushes_on_commit() || dirty.is_empty() {
            return Vec::new();
        }
        let sites: Vec<NodeId> = o.caching.iter().copied().filter(|&s| s != node).collect();
        for &site in &sites {
            self.install(site, object, dirty);
        }
        sites
    }

    /// Checks internal coherence: owners hold what the map claims; local
    /// versions never exceed the global version. Used by tests.
    pub fn check_coherence(&self) -> Result<(), String> {
        for (i, o) in self.objects.iter() {
            for (idx, (&global, &owner)) in o.global.iter().zip(&o.owner).enumerate() {
                let at_owner = o
                    .local
                    .get(&owner)
                    .and_then(|v| v[idx])
                    .unwrap_or(Version::INITIAL);
                if at_owner != global {
                    return Err(format!(
                        "O{i}/p{idx}: owner {owner} has {at_owner}, global is {global}"
                    ));
                }
                for (node, versions) in &o.local {
                    if let Some(v) = versions[idx] {
                        if v.is_newer_than(global) {
                            return Err(format!(
                                "O{i}/p{idx}: {node} caches {v} newer than global {global}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl PlacementView for PlacementModel {
    fn local_version(&self, node: NodeId, object: ObjectId, page: PageIndex) -> Option<Version> {
        match self.obj(object) {
            Some(o) => o.local.get(&node).and_then(|v| v[page.get() as usize]),
            None => {
                let at_home = PageLocation::initial(self.row(object).home);
                (node == at_home.node).then_some(at_home.version)
            }
        }
    }

    fn global_version(&self, object: ObjectId, page: PageIndex) -> Version {
        match self.obj(object) {
            Some(o) => o.global[page.get() as usize],
            None => PageLocation::initial(self.row(object).home).version,
        }
    }

    fn page_owner(&self, object: ObjectId, page: PageIndex) -> NodeId {
        match self.obj(object) {
            Some(o) => o.owner[page.get() as usize],
            None => PageLocation::initial(self.row(object).home).node,
        }
    }

    fn last_holder(&self, object: ObjectId) -> NodeId {
        self.obj(object)
            .map_or(self.row(object).home, |o| o.last_holder)
    }

    fn num_pages(&self, object: ObjectId) -> u16 {
        self.row(object).num_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::demand_batches;
    use lotec_object::{ClassBuilder, ClassId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn registry() -> ObjectRegistry {
        // One class spanning 4 pages of 100 bytes.
        let class = ClassBuilder::new("Blob")
            .attribute("a", 100)
            .attribute("b", 100)
            .attribute("c", 100)
            .attribute("d", 100)
            .method("m", |m| m.path(|p| p.reads(&["a"]).writes(&["a"])))
            .build();
        ObjectRegistry::build(&[class], &[(ClassId::new(0), n(0))], 100).unwrap()
    }

    fn obj() -> ObjectId {
        ObjectId::new(0)
    }

    fn pages(idx: &[u16]) -> Vec<PageIndex> {
        idx.iter().map(|&i| PageIndex::new(i)).collect()
    }

    fn all() -> PageSet {
        (0..4).map(PageIndex::new).collect()
    }

    #[test]
    fn fresh_object_needs_no_transfer_under_otec() {
        let mut m = PlacementModel::new(ProtocolKind::Otec, &registry());
        let plan = m.on_grant(n(1), obj(), &all());
        assert!(plan.is_empty(), "all pages are version 0");
        m.check_coherence().unwrap();
    }

    #[test]
    fn commit_then_foreign_grant_moves_dirty_pages() {
        let mut m = PlacementModel::new(ProtocolKind::Otec, &registry());
        m.on_grant(n(1), obj(), &all());
        let push = m.on_commit(n(1), obj(), &pages(&[0, 2]));
        assert!(push.is_empty(), "OTEC never pushes");
        let plan = m.on_grant(n(2), obj(), &all());
        assert_eq!(plan.num_pages(), 2, "only the two updated pages move");
        assert_eq!(plan.sources().next().unwrap().0, n(1));
        m.check_coherence().unwrap();
    }

    #[test]
    fn cotec_moves_whole_object_every_time() {
        let mut m = PlacementModel::new(ProtocolKind::Cotec, &registry());
        let plan = m.on_grant(n(1), obj(), &all());
        assert_eq!(plan.num_pages(), 4, "COTEC ships v0 pages too");
        m.on_commit(n(1), obj(), &pages(&[0]));
        let plan = m.on_grant(n(2), obj(), &all());
        assert_eq!(plan.num_pages(), 4);
        // Re-acquisition by the same node is free (it is the last holder).
        m.on_commit(n(2), obj(), &pages(&[0]));
        let plan = m.on_grant(n(2), obj(), &all());
        assert!(plan.is_empty());
        m.check_coherence().unwrap();
    }

    #[test]
    fn lotec_fetches_predicted_intersection_and_scatters() {
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &registry());
        // N1 updates p0+p1; N2 updates p2.
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0, 1]));
        let pred: PageSet = [PageIndex::new(2), PageIndex::new(3)].into_iter().collect();
        m.on_grant(n(2), obj(), &pred);
        m.on_commit(n(2), obj(), &pages(&[2]));
        // N3 predicted to need p0 and p2: must gather from two sources.
        let pred: PageSet = [PageIndex::new(0), PageIndex::new(2)].into_iter().collect();
        let plan = m.on_grant(n(3), obj(), &pred);
        assert_eq!(plan.num_pages(), 2);
        assert_eq!(plan.num_sources(), 2, "scattered up-to-date pages");
        m.check_coherence().unwrap();
    }

    #[test]
    fn lotec_unfetched_pages_stay_stale_and_cost_later() {
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &registry());
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0, 1, 2, 3]));
        // N2 predicted only p0.
        let pred0: PageSet = [PageIndex::new(0)].into_iter().collect();
        let plan = m.on_grant(n(2), obj(), &pred0);
        assert_eq!(plan.num_pages(), 1);
        m.on_commit(n(2), obj(), &pages(&[0]));
        // N2 re-acquires, now needing p1: it is still stale locally.
        let pred1: PageSet = [PageIndex::new(1)].into_iter().collect();
        let plan = m.on_grant(n(2), obj(), &pred1);
        assert_eq!(plan.num_pages(), 1);
        assert_eq!(plan.sources().next().unwrap().0, n(1));
        m.check_coherence().unwrap();
    }

    #[test]
    fn rc_pushes_to_all_caching_sites() {
        let mut m = PlacementModel::new(ProtocolKind::ReleaseConsistency, &registry());
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[0]));
        m.on_grant(n(2), obj(), &all());
        let push = m.on_commit(n(2), obj(), &pages(&[1]));
        // Caching sites: home N0, N1, N2 -> pushes to N0 and N1.
        assert_eq!(push, vec![n(0), n(1)]);
        // After the push, N1 acquiring again needs nothing.
        let plan = m.on_grant(n(1), obj(), &all());
        assert!(plan.is_empty(), "RC keeps caching sites current");
        m.check_coherence().unwrap();
    }

    #[test]
    fn demand_fetch_updates_local_copy() {
        let mut m = PlacementModel::new(ProtocolKind::Lotec, &registry());
        m.on_grant(n(1), obj(), &all());
        m.on_commit(n(1), obj(), &pages(&[3]));
        // N2 acquires predicting nothing, then touches p2 and p3: p3 is
        // stale, never-written p2 is demand-zeroed.
        m.on_grant(n(2), obj(), &PageSet::new());
        let touched: PageSet = pages(&[2, 3]).into_iter().collect();
        let batches = demand_batches(&m, n(2), obj(), &touched, false);
        assert_eq!(batches, vec![(n(1), pages(&[3]))]);
        m.install(n(2), obj(), &batches[0].1);
        // Second touch: now current, no fetch.
        assert!(demand_batches(&m, n(2), obj(), &touched, false).is_empty());
        m.check_coherence().unwrap();
    }

    #[test]
    fn byte_ordering_over_a_shared_random_schedule() {
        // Drive all three paper protocols over one identical schedule and
        // check LOTEC <= OTEC <= COTEC on cumulative pages moved.
        let reg = registry();
        let mut rng = lotec_sim::SimRng::seed_from_u64(99);
        let mut models: Vec<PlacementModel> = ProtocolKind::PAPER_TRIO
            .iter()
            .map(|&k| PlacementModel::new(k, &reg))
            .collect();
        let mut moved = [0usize; 3];
        for _ in 0..200 {
            let node = n(rng.next_below(4) as u32);
            let pred: PageSet = (0..4)
                .filter(|_| rng.chance(0.5))
                .map(PageIndex::new)
                .collect();
            let writes: Vec<PageIndex> = pred.iter().filter(|_| rng.chance(0.6)).collect();
            for (i, m) in models.iter_mut().enumerate() {
                let full: PageSet = (0..4).map(PageIndex::new).collect();
                let prefetch = if m.kind() == ProtocolKind::Lotec {
                    &pred
                } else {
                    &full
                };
                let plan = m.on_grant(node, obj(), prefetch);
                moved[i] += plan.num_pages();
                m.on_commit(node, obj(), &writes);
                m.check_coherence().unwrap();
            }
        }
        let [cotec, otec, lotec] = moved;
        assert!(lotec <= otec, "LOTEC {lotec} > OTEC {otec}");
        assert!(otec <= cotec, "OTEC {otec} > COTEC {cotec}");
        assert!(lotec > 0);
    }
}

//! Simulated physical memory: the page table, placement policies, node
//! capacities, THP frame grouping, and the sparse byte store.

use crate::config::MemPolicy;
use crate::error::{SimError, SimResult};
use nqp_topology::{MachineSpec, NodeId};
use std::ops::Range;

/// Small (default) page size: 4 KB.
pub const SMALL_PAGE: u64 = 4096;
/// Huge page size: 2 MB (512 small pages).
pub const HUGE_PAGE: u64 = 2 * 1024 * 1024;
/// Small pages per huge frame.
pub const PAGES_PER_HUGE: u64 = HUGE_PAGE / SMALL_PAGE;
/// Cache line size; every machine in Table II uses 64-byte lines.
pub const LINE: u64 = 64;

/// Virtual address in the simulated process.
pub type VAddr = u64;

/// Marker for a page with no home node yet (First Touch, pre-fault).
const NO_NODE: u8 = u8::MAX;

/// Per-4KB-page metadata.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
pub struct PageEntry {
    /// Home node, or `NO_NODE` while unassigned.
    node: u8,
    /// Part of a 2 MB huge frame (THP).
    huge: bool,
    /// The page has been touched at least once (fault already charged).
    faulted: bool,
    /// Currently part of a live mapping.
    mapped: bool,
    /// AutoNUMA: consecutive remote touches since the last local touch or
    /// migration.
    remote_hits: u8,
    /// AutoNUMA two-reference rule: the node of the last remote toucher;
    /// hits only accumulate when the *same* node keeps touching.
    last_remote: u8,
    /// Bitmask of nodes observed touching this page (AutoNUMA's shared-
    /// page detection; up to 8 nodes, enough for every Table II machine).
    sharers: u8,
    /// Scan epoch of the last NUMA-hinting fault taken on this page: the
    /// kernel unmaps a page once per scan period, and only the first
    /// toucher afterwards pays the fault.
    hint_epoch: u8,
}

impl PageEntry {
    const UNMAPPED: PageEntry =
        PageEntry {
        node: NO_NODE,
        huge: false,
        faulted: false,
        mapped: false,
        remote_hits: 0,
        last_remote: NO_NODE,
        sharers: 0,
        hint_epoch: u8::MAX,
    };
}

/// Outcome of resolving one touch against the page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchResolution {
    /// The node that serves the access.
    pub node: NodeId,
    /// A minor fault occurred (first touch): charge fault cost.
    pub faulted: bool,
    /// The page is backed by a huge frame: use the 2 MB TLB.
    pub huge: bool,
    /// Number of 4 KB pages zero-filled by the fault (512 for a huge
    /// frame's first touch, 1 for a small page, 0 when no fault).
    pub fault_pages: u64,
}

/// The simulated memory subsystem.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub struct Memory {
    pages: Vec<PageEntry>,
    /// The bytes the simulated process wrote, one pool page per written
    /// 4 KB page (never-written pages read as zeros and hold nothing).
    data: PageStore,
    /// Next unmapped virtual address (bump-allocated address space).
    next: VAddr,
    node_used_pages: Vec<u64>,
    nodes: Nodes,
    /// Which nodes hold slow-tier memory (`MemTier::SlowTier`), for the
    /// tier daemon's promote/demote page walks.
    slow_node: Vec<bool>,
    /// Round-robin cursor for the Interleave policy.
    interleave_cursor: usize,
    num_nodes: usize,
}

/// The region facts every placement reads. They change only in serial
/// code (a node going offline), so a sharded region's views read the
/// base's.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone, PartialEq))]
pub(crate) struct Nodes {
    /// Nearest-node fallback orders, precomputed per node.
    fallback: Vec<Vec<NodeId>>,
    /// Nodes whose memory controller is offline (node-outage fault).
    /// Offline nodes hold no pages and are skipped by every placement.
    offline: Vec<bool>,
    /// Per-node page budget: slow-tier nodes (CXL expanders, NVM banks)
    /// are usually far larger than the DRAM nodes in front of them.
    capacity_pages: Vec<u64>,
}

impl Nodes {
    /// Whether `node` has room for `unit_pages` more pages when `used`
    /// pages per node are taken (offline or not: callers check that).
    #[inline]
    fn fits(&self, used: &[u64], node: NodeId, unit_pages: u64) -> bool {
        used[node] + unit_pages <= self.capacity_pages[node]
    }
}

impl Memory {
    /// Build the memory subsystem for a machine.
    pub fn new(machine: &MachineSpec) -> Self {
        let num_nodes = machine.topology.num_nodes();
        let fallback = (0..num_nodes)
            .map(|n| machine.topology.nodes_by_distance(n))
            .collect();
        Memory {
            pages: Vec::new(),
            data: PageStore::default(),
            // Leave page 0 unmapped so address 0 acts as null.
            next: SMALL_PAGE,
            node_used_pages: vec![0; num_nodes],
            nodes: Nodes {
                fallback,
                offline: vec![false; num_nodes],
                capacity_pages: (0..num_nodes)
                    .map(|n| machine.mem_bytes_of_node(n) / SMALL_PAGE)
                    .collect(),
            },
            slow_node: (0..num_nodes).map(|n| machine.is_slow_tier(n)).collect(),
            interleave_cursor: 0,
            num_nodes,
        }
    }

    /// Map `bytes` of fresh address space (the model of `mmap`).
    ///
    /// * Under THP, mappings of at least one huge page are built from 2 MB
    ///   frames (the address is 2 MB-aligned), trailing remainder from 4 KB
    ///   pages.
    /// * Placement: `Interleave`, `Localalloc`, `Preferred`, and `Bind`
    ///   assign home nodes immediately (at placement granularity = page or
    ///   frame); `FirstTouch` defers to the first touch.
    ///
    /// Fails with [`SimError::InvalidMapping`] for zero-byte requests and
    /// [`SimError::OutOfMemory`] when no node can hold the pages (strictly
    /// the bound node under `Bind`). On failure nothing is mapped and no
    /// capacity is consumed.
    pub fn map(
        &mut self,
        bytes: u64,
        policy: MemPolicy,
        mapping_node: NodeId,
        thp: bool,
    ) -> SimResult<VAddr> {
        self.map_inner(bytes, policy, mapping_node, thp)
    }

    /// Map address space that parallel workers will fault in roughly
    /// uniformly (a shared hash table probed by every thread). The
    /// simulator runs logical threads sequentially, so genuine First
    /// Touch would attribute every fault to worker 0; this entry point
    /// models the uniform spreading of concurrent first-touchers by
    /// interleaving the assignment under First Touch / Localalloc.
    /// Explicit policies (Interleave, Preferred) behave as themselves.
    pub fn map_shared(
        &mut self,
        bytes: u64,
        policy: MemPolicy,
        mapping_node: NodeId,
        thp: bool,
    ) -> SimResult<VAddr> {
        let effective = match policy {
            MemPolicy::FirstTouch | MemPolicy::Localalloc => MemPolicy::Interleave,
            other => other,
        };
        self.map_inner(bytes, effective, mapping_node, thp)
    }

    fn map_inner(
        &mut self,
        bytes: u64,
        policy: MemPolicy,
        mapping_node: NodeId,
        thp: bool,
    ) -> SimResult<VAddr> {
        if bytes == 0 {
            return Err(SimError::InvalidMapping { addr: self.next });
        }
        let saved_next = self.next;
        let saved_cursor = self.interleave_cursor;
        let use_huge = thp && bytes >= HUGE_PAGE;
        let align = if use_huge { HUGE_PAGE } else { SMALL_PAGE };
        let addr = round_up(self.next, align);
        let len = round_up(bytes, SMALL_PAGE);
        self.next = addr + len;

        let first_page = (addr / SMALL_PAGE) as usize;
        let n_pages = (len / SMALL_PAGE) as usize;
        if self.pages.len() < first_page + n_pages {
            self.pages.resize(first_page + n_pages, PageEntry::UNMAPPED);
        }

        let mut idx = 0usize;
        while idx < n_pages {
            let remaining = n_pages - idx;
            let huge = use_huge && remaining >= PAGES_PER_HUGE as usize;
            let unit = if huge { PAGES_PER_HUGE as usize } else { 1 };
            let node = match self.assign_at_map(policy, mapping_node, unit as u64) {
                Ok(n) => n,
                Err(e) => {
                    // Roll the partial mapping back: no capacity may leak
                    // from a failed map.
                    for p in first_page..first_page + idx {
                        let entry = &mut self.pages[p];
                        if entry.node != NO_NODE {
                            self.node_used_pages[entry.node as usize] -= 1;
                        }
                        *entry = PageEntry::UNMAPPED;
                    }
                    self.next = saved_next;
                    self.interleave_cursor = saved_cursor;
                    return Err(e);
                }
            };
            for p in 0..unit {
                self.pages[first_page + idx + p] = PageEntry {
                    node: node.map_or(NO_NODE, |n| n as u8),
                    huge,
                    faulted: false,
                    mapped: true,
                    remote_hits: 0,
                    last_remote: NO_NODE,
                    sharers: 0,
                    hint_epoch: u8::MAX,
                };
            }
            idx += unit;
        }
        Ok(addr)
    }

    /// Release a mapping created by [`Memory::map`]. The address space is
    /// not recycled (addresses stay unique for the life of the sim), but
    /// node capacity is returned. Fails with [`SimError::InvalidMapping`]
    /// when the range was never part of a mapping.
    pub fn unmap(&mut self, addr: VAddr, bytes: u64) -> SimResult<()> {
        let first_page = (addr / SMALL_PAGE) as usize;
        let n_pages = (round_up(bytes, SMALL_PAGE) / SMALL_PAGE) as usize;
        if n_pages == 0 || first_page + n_pages > self.pages.len() {
            return Err(SimError::InvalidMapping { addr });
        }
        for p in first_page..first_page + n_pages {
            let e = &mut self.pages[p];
            if e.mapped && e.node != NO_NODE {
                self.node_used_pages[e.node as usize] -= 1;
            }
            *e = PageEntry::UNMAPPED;
        }
        Ok(())
    }

    /// Node assignment at map time; `Ok(None)` means deferred (First
    /// Touch). Fails when no permitted node has space.
    fn assign_at_map(
        &mut self,
        policy: MemPolicy,
        mapping_node: NodeId,
        unit_pages: u64,
    ) -> SimResult<Option<NodeId>> {
        let desired = match policy {
            MemPolicy::FirstTouch => return Ok(None),
            MemPolicy::Localalloc => mapping_node,
            MemPolicy::Preferred(p) => p.min(self.num_nodes - 1),
            MemPolicy::Bind(b) => {
                // Strict membind: the bound node or failure, no fallback.
                let node = b.min(self.num_nodes - 1);
                if self.nodes.offline[node] {
                    return Err(SimError::NodeOffline { node });
                }
                if !self.nodes.fits(&self.node_used_pages, node, unit_pages) {
                    return Err(SimError::OutOfMemory {
                        node,
                        requested_pages: unit_pages,
                    });
                }
                self.node_used_pages[node] += unit_pages;
                return Ok(Some(node));
            }
            MemPolicy::Interleave => {
                let n = self.interleave_cursor % self.num_nodes;
                self.interleave_cursor += 1;
                n
            }
        };
        let node = self.node_with_space(desired, unit_pages).ok_or(
            SimError::OutOfMemory { node: desired, requested_pages: unit_pages },
        )?;
        self.node_used_pages[node] += unit_pages;
        Ok(Some(node))
    }

    /// Prefetch the host cache line holding `addr`'s page-table entry.
    /// A pure latency hint; resolves nothing and mutates nothing.
    #[inline]
    pub fn prefetch_page(&self, addr: VAddr) {
        if let Some(e) = self.pages.get((addr / SMALL_PAGE) as usize) {
            crate::mix::prefetch(e);
        }
    }

    /// Home node of the page containing `addr` (None while unassigned).
    pub fn node_of(&self, addr: VAddr) -> Option<NodeId> {
        let e = self.pages.get((addr / SMALL_PAGE) as usize)?;
        (e.mapped && e.node != NO_NODE).then_some(e.node as NodeId)
    }

    /// Whether `addr` lies in a huge (2 MB) frame.
    pub fn is_huge(&self, addr: VAddr) -> bool {
        self.pages
            .get((addr / SMALL_PAGE) as usize)
            .is_some_and(|e| e.mapped && e.huge)
    }

    /// Whether `addr` is inside a live mapping.
    pub fn is_mapped(&self, addr: VAddr) -> bool {
        self.pages
            .get((addr / SMALL_PAGE) as usize)
            .is_some_and(|e| e.mapped)
    }

    /// Pages currently assigned to each node.
    pub fn node_used_pages(&self) -> &[u64] {
        &self.node_used_pages
    }

    /// Whether `node`'s memory controller has been taken offline.
    pub fn is_node_offline(&self, node: NodeId) -> bool {
        self.nodes.offline.get(node).copied().unwrap_or(false)
    }

    /// Take `node` offline and evacuate every page it holds to the
    /// nearest live node with space (zone order), preserving the
    /// frame-shares-one-node invariant by moving huge frames as whole
    /// units. Returns the number of 4 KB pages moved; the engine charges
    /// them as migration traffic.
    ///
    /// Fails with [`SimError::NodeOffline`] when `node` is the last live
    /// node (nowhere to run or evacuate to) and [`SimError::OutOfMemory`]
    /// when the survivors cannot absorb the evacuated pages. Taking an
    /// already-offline node offline again is a no-op.
    pub fn set_node_offline(&mut self, node: NodeId) -> SimResult<u64> {
        if node >= self.num_nodes {
            return Err(SimError::Harness {
                what: format!("offline of nonexistent node {node}"),
            });
        }
        if self.nodes.offline[node] {
            return Ok(0);
        }
        let live = self.nodes.offline.iter().filter(|&&dead| !dead).count();
        if live <= 1 {
            return Err(SimError::NodeOffline { node });
        }
        // Flag first so placement fallbacks skip the dead node while its
        // pages are rehomed.
        self.nodes.offline[node] = true;
        let mut moved = 0u64;
        let mut p = 0usize;
        while p < self.pages.len() {
            let e = self.pages[p];
            if !(e.mapped && e.node as usize == node) {
                p += 1;
                continue;
            }
            // Huge mappings are 2 MB-aligned, so a frame's first page is
            // always reached before its tail: evacuate the whole unit.
            let unit = placement_unit(p, e.huge);
            let n = unit.len() as u64;
            let target = self
                .node_with_space(node, n)
                .ok_or(SimError::OutOfMemory { node, requested_pages: n })?;
            p = unit.end;
            moved += self.move_unit(unit, node, target);
        }
        Ok(moved)
    }

    /// Rearrange already-resident pages to match `policy`, moving at
    /// most `max_pages` 4 KB pages (the online advisor's bounded
    /// per-epoch migration budget). Walks the page table in address
    /// order like [`Memory::set_node_offline`], moving huge frames as
    /// whole units and resetting their AutoNUMA reference state.
    ///
    /// * `Interleave` deals units round-robin across live nodes with a
    ///   fresh cursor (the `map`-time cursor is left untouched so
    ///   placements of *new* mappings are unaffected).
    /// * `Preferred`/`Bind` target the named node, skipping units it
    ///   cannot hold — re-homing is advisory, never an OOM.
    /// * `FirstTouch`/`Localalloc` are no-ops: nothing records who
    ///   would have touched first.
    ///
    /// Returns the number of 4 KB pages moved; the engine charges them
    /// as kernel migration traffic.
    pub fn rehome_pages(&mut self, policy: MemPolicy, max_pages: u64) -> u64 {
        let live: Vec<NodeId> =
            (0..self.num_nodes).filter(|&n| !self.nodes.offline[n]).collect();
        if live.is_empty() {
            return 0;
        }
        let mut cursor = 0usize;
        let mut moved = 0u64;
        let mut p = 0usize;
        while p < self.pages.len() && moved < max_pages {
            let e = self.pages[p];
            // Only faulted-in pages move: an assigned-but-untouched page
            // has no contents to copy, and charging a copy for it would
            // overstate the re-tune's cost.
            if !(e.mapped && e.faulted && e.node != NO_NODE) {
                p += 1;
                continue;
            }
            // Huge mappings are 2 MB-aligned, so a frame's first page is
            // always reached before its tail: move the whole unit.
            let unit = placement_unit(p, e.huge);
            p = unit.end;
            let target = match policy {
                MemPolicy::Interleave => {
                    // Advance the cursor for every unit, moved or not,
                    // so the dealt pattern is a stable function of the
                    // address-order walk.
                    let t = live[cursor % live.len()];
                    cursor += 1;
                    t
                }
                MemPolicy::Preferred(n) | MemPolicy::Bind(n) => n,
                MemPolicy::FirstTouch | MemPolicy::Localalloc => return moved,
            };
            let n = unit.len() as u64;
            if target >= self.num_nodes
                || self.nodes.offline[target]
                || e.node as usize == target
                || moved + n > max_pages
                || !self.nodes.fits(&self.node_used_pages, target, n)
            {
                continue;
            }
            moved += self.move_unit(unit, e.node as NodeId, target);
        }
        moved
    }

    /// Move specific pages between memory tiers — the tier daemon's
    /// apply path. `pages` are 4 KB page indices (`addr / SMALL_PAGE`)
    /// in the order the daemon ranked them; `to_slow = false` promotes
    /// them to DRAM nodes, `to_slow = true` demotes them to slow-tier
    /// nodes. At most `max_pages` 4 KB pages move (the per-epoch
    /// migration budget); huge frames move whole or not at all.
    ///
    /// Targets are dealt round-robin across live nodes of the requested
    /// tier with space, with a fresh cursor per call, so the outcome is
    /// a pure function of (`pages` order, page-table state) — the
    /// determinism the tiering differential tests pin. Pages already in
    /// the requested tier, unmapped/unfaulted pages, and units that
    /// would exceed the budget or target capacity are skipped, never an
    /// error: retiering is advisory, like [`Memory::rehome_pages`].
    ///
    /// Returns the number of 4 KB pages moved; the engine charges them
    /// as migration traffic and counts promotions/demotions.
    pub fn retier_pages(&mut self, pages: &[u64], to_slow: bool, max_pages: u64) -> u64 {
        let targets: Vec<NodeId> = (0..self.num_nodes)
            .filter(|&n| !self.nodes.offline[n] && self.slow_node[n] == to_slow)
            .collect();
        if targets.is_empty() {
            return 0;
        }
        let mut cursor = 0usize;
        let mut moved = 0u64;
        for &page in pages {
            if moved >= max_pages {
                break;
            }
            let p = page as usize;
            let Some(e) = self.pages.get(p).copied() else { continue };
            if !(e.mapped && e.faulted && e.node != NO_NODE)
                || self.slow_node[e.node as usize] == to_slow
            {
                continue;
            }
            let unit = placement_unit(p, e.huge);
            let n = unit.len() as u64;
            if moved + n > max_pages {
                continue;
            }
            // Deal the unit to the next tier node with room. The cursor
            // advances only on a successful move, so one full node never
            // starves the rest of the rotation.
            let target = (0..targets.len())
                .map(|i| targets[(cursor + i) % targets.len()])
                .find(|&t| self.nodes.fits(&self.node_used_pages, t, n));
            let Some(target) = target else { continue };
            cursor += 1;
            moved += self.move_unit(unit, e.node as NodeId, target);
        }
        moved
    }

    /// Re-home placement unit `unit` from `from` to `to`, resetting its
    /// AutoNUMA reference state; returns the 4 KB pages moved.
    fn move_unit(&mut self, unit: Range<usize>, from: NodeId, to: NodeId) -> u64 {
        let n = unit.len() as u64;
        self.node_used_pages[from] -= n;
        self.node_used_pages[to] += n;
        for e in &mut self.pages[unit] {
            e.node = to as u8;
            e.remote_hits = 0;
            e.last_remote = NO_NODE;
        }
        n
    }

    /// Whether `node` holds slow-tier memory.
    pub fn is_slow_node(&self, node: NodeId) -> bool {
        self.slow_node.get(node).copied().unwrap_or(false)
    }

    // ---- byte store --------------------------------------------------

    /// Write raw bytes at `addr` (cost accounting happens in the engine).
    #[inline]
    pub fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        self.data.write(addr, data);
    }

    /// Read raw bytes at `addr` (see [`PageStore::read`]).
    #[inline]
    pub fn read_bytes(&self, addr: VAddr, out: &mut [u8]) {
        self.data.read(None, addr, out);
    }

    /// Prefetch the host cache line holding the stored byte at `addr`.
    /// A pure latency hint: never-written and unmapped addresses hold no
    /// bytes and issue nothing.
    #[inline]
    pub fn prefetch_bytes(&self, addr: VAddr) {
        self.data.prefetch(addr);
    }

    /// 4 KB pages of host memory holding written bytes.
    pub fn data_pages(&self) -> u64 {
        self.data.len() as u64
    }

    /// Total mapped address space handed out so far, in bytes.
    pub fn mapped_high_water(&self) -> u64 {
        self.next
    }
}

// ---- page-table rules ------------------------------------------------

/// A page-entry store the page-table rules run over: the canonical
/// [`Memory`], or a sharded worker's copy-on-write [`ShardMemView`] of
/// it. Each rule is written once, as a default method here — as the
/// LLC's hit/insert rule is written once over [`crate::cache::Tags`] —
/// so serial and sharded regions apply the same placement, fault,
/// AutoNUMA and capacity rules by construction.
pub(crate) trait PageTable {
    /// The entry of 4 KB page `page`; `None` past the page table's end.
    fn entry(&self, page: usize) -> Option<PageEntry>;

    /// Overwrite the entry of `page`, which lies inside the page table.
    fn set_entry(&mut self, page: usize, e: PageEntry);

    /// Pages assigned to each node, as this store counts them.
    fn used(&self) -> &[u64];

    /// The same counts, for a rule that assigns or moves pages.
    fn used_mut(&mut self) -> &mut [u64];

    /// The region facts placement reads.
    fn nodes(&self) -> &Nodes;

    /// Nearest *live* node to `desired` (zone order) with room for
    /// `unit_pages` more pages; `None` when every live node is full — the
    /// model of a real kernel OOM.
    fn node_with_space(&self, desired: NodeId, unit_pages: u64) -> Option<NodeId> {
        let (nodes, used) = (self.nodes(), self.used());
        nodes.fallback[desired]
            .iter()
            .copied()
            .find(|&n| !nodes.offline[n] && nodes.fits(used, n, unit_pages))
    }

    /// Resolve a touch by `toucher_node` at `addr`: performs First Touch
    /// assignment and minor-fault bookkeeping, returns where the access is
    /// served from. Does **not** apply AutoNUMA (the engine layers that on
    /// top so it can charge migration costs).
    ///
    /// Fails with [`SimError::InvalidMapping`] on touches outside any live
    /// mapping and [`SimError::OutOfMemory`] when a deferred First-Touch
    /// assignment finds every node full.
    #[inline]
    fn resolve_touch(&mut self, addr: VAddr, toucher_node: NodeId) -> SimResult<TouchResolution> {
        let page = (addr / SMALL_PAGE) as usize;
        let e = self
            .entry(page)
            .filter(|e| e.mapped)
            .ok_or(SimError::InvalidMapping { addr })?;
        if e.faulted {
            return Ok(TouchResolution {
                node: e.node as NodeId,
                faulted: false,
                huge: e.huge,
                fault_pages: 0,
            });
        }
        // Fault path: assign a node if First Touch deferred it, then mark
        // the fault unit (whole huge frame, or one small page) as faulted.
        let unit = placement_unit(page, e.huge);
        let count = unit.len() as u64;
        let node = if e.node == NO_NODE {
            let n = self.node_with_space(toucher_node, count).ok_or(
                SimError::OutOfMemory { node: toucher_node, requested_pages: count },
            )?;
            self.used_mut()[n] += count;
            n
        } else {
            e.node as NodeId
        };
        for p in unit {
            let mut pe = self.entry(p).unwrap_or(PageEntry::UNMAPPED);
            pe.node = node as u8;
            pe.faulted = true;
            self.set_entry(p, pe);
        }
        Ok(TouchResolution { node, faulted: true, huge: e.huge, fault_pages: count })
    }

    /// AutoNUMA bookkeeping for one touch. Returns `(migrated_pages,
    /// blocked)`: the number of 4 KB pages migrated to `toucher_node`
    /// (0 when no migration fired), and whether a migration *wanted* to
    /// fire but was blocked by `allow_migrate = false` (an injected
    /// migration failure — the engine charges partial kernel cost and
    /// counts it).
    ///
    /// Pages accumulate `remote_hits` on remote touches by a *consistent*
    /// remote node (the kernel's two-reference rule); reaching
    /// `threshold` migrates the page (or its whole huge frame) to the
    /// toucher. A local touch clears the count. Pages shared by many
    /// nodes keep resetting the rule, but the ones that do trip it
    /// bounce back and forth — the §III-D2 limitations.
    #[inline]
    fn autonuma_touch(
        &mut self,
        addr: VAddr,
        toucher_node: NodeId,
        threshold: u32,
        allow_migrate: bool,
    ) -> (u64, bool) {
        if self.nodes().offline.get(toucher_node).copied().unwrap_or(false) {
            // Defensive: never migrate pages onto a dead node.
            return (0, false);
        }
        let page = (addr / SMALL_PAGE) as usize;
        let Some(mut e) = self.entry(page) else { return (0, false) };
        e.sharers |= 1u8 << (toucher_node & 7);
        if e.node as NodeId == toucher_node {
            e.remote_hits = 0;
            self.set_entry(page, e);
            return (0, false);
        }
        // Shared-page detection: pages observed from three or more nodes
        // are left in place (migrating them would only ping-pong).
        if e.sharers.count_ones() >= 3 {
            self.set_entry(page, e);
            return (0, false);
        }
        if e.last_remote as NodeId == toucher_node {
            e.remote_hits = e.remote_hits.saturating_add(1);
        } else {
            e.last_remote = toucher_node as u8;
            e.remote_hits = 1;
        }
        if (e.remote_hits as u32) < threshold {
            self.set_entry(page, e);
            return (0, false);
        }
        let unit = placement_unit(page, e.huge);
        let count = unit.len() as u64;
        // An injected migration failure resets the hit count as the
        // kernel would after an isolate_lru failure, and leaves the page
        // where it is. So does a full target node: migrate_pages fails
        // when the target cannot allocate. That matters only on tier
        // machines with deliberately tiny DRAM nodes (Table II capacities
        // are never approached), in serial and sharded regions alike.
        let full = !self.nodes().fits(self.used(), toucher_node, count);
        if !allow_migrate || full {
            e.remote_hits = 0;
            self.set_entry(page, e);
            return (0, !allow_migrate);
        }
        // Migrate the placement unit to the toucher.
        self.set_entry(page, e);
        let used = self.used_mut();
        used[e.node as usize] -= count;
        used[toucher_node] += count;
        for p in unit {
            let mut pe = self.entry(p).unwrap_or(PageEntry::UNMAPPED);
            pe.node = toucher_node as u8;
            pe.remote_hits = 0;
            self.set_entry(p, pe);
        }
        (count, false)
    }

    /// Record a NUMA-hinting fault opportunity: returns `true` (and
    /// advances the page's epoch) when the page has not faulted in scan
    /// epoch `epoch` yet — i.e. the toucher must pay the hint fault.
    #[inline]
    fn hint_fault_due(&mut self, addr: VAddr, epoch: u8) -> bool {
        let page = (addr / SMALL_PAGE) as usize;
        let Some(mut e) = self.entry(page) else { return false };
        if e.hint_epoch == epoch {
            return false;
        }
        e.hint_epoch = epoch;
        self.set_entry(page, e);
        true
    }
}

impl PageTable for Memory {
    #[inline]
    fn entry(&self, page: usize) -> Option<PageEntry> {
        self.pages.get(page).copied()
    }

    #[inline]
    fn set_entry(&mut self, page: usize, e: PageEntry) {
        self.pages[page] = e;
    }

    #[inline]
    fn used(&self) -> &[u64] {
        &self.node_used_pages
    }

    #[inline]
    fn used_mut(&mut self) -> &mut [u64] {
        &mut self.node_used_pages
    }

    #[inline]
    fn nodes(&self) -> &Nodes {
        &self.nodes
    }
}

/// The pages of the placement unit holding `page`: its whole 2 MB frame
/// when `huge`, else the one small page.
#[inline]
fn placement_unit(page: usize, huge: bool) -> Range<usize> {
    if huge {
        let start = page - page % PAGES_PER_HUGE as usize;
        start..start + PAGES_PER_HUGE as usize
    } else {
        page..page + 1
    }
}

/// The TLB tag for `addr`: huge frames translate at 2 MB granularity.
#[inline]
pub(crate) fn tlb_tag(addr: VAddr, huge: bool) -> u64 {
    if huge {
        addr / HUGE_PAGE
    } else {
        addr / SMALL_PAGE
    }
}

// ---- sparse byte store ---------------------------------------------

/// Bytes in one page of the byte store.
const PAGE_BYTES: usize = SMALL_PAGE as usize;

/// Pool pages per chunk: the pool grows 256 KB at a time.
const CHUNK_PAGES: usize = 64;

type PageBytes = [u8; PAGE_BYTES];

/// The simulated process's bytes, stored sparsely: one `u32` slot per
/// 4 KB page of address space points into a pool of 4 KB pages. A page
/// that was never written has no pool page, reads as zeros and holds no
/// host memory, so the store follows what a run writes, not how far its
/// address space reaches. The pool grows a fixed chunk at a time and
/// never moves a page.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct PageStore {
    /// Per 4 KB page: its pool index + 1, or 0 while never written.
    slots: Vec<u32>,
    /// The pool, in chunks of `CHUNK_PAGES` zeroed pages.
    chunks: Vec<Box<[PageBytes]>>,
    /// The 4 KB page each pool page backs, in allocation order.
    owners: Vec<usize>,
}

impl PageStore {
    /// Pool pages in use.
    fn len(&self) -> usize {
        self.owners.len()
    }

    /// Pool index of page `pidx`, if it was ever written.
    #[inline]
    fn slot(&self, pidx: usize) -> Option<usize> {
        match self.slots.get(pidx) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    #[inline]
    fn pool(&self, i: usize) -> &PageBytes {
        &self.chunks[i / CHUNK_PAGES][i % CHUNK_PAGES]
    }

    #[inline]
    fn pool_mut(&mut self, i: usize) -> &mut PageBytes {
        &mut self.chunks[i / CHUNK_PAGES][i % CHUNK_PAGES]
    }

    /// Page `pidx`'s bytes; `None` reads as zeros.
    #[inline]
    fn page(&self, pidx: usize) -> Option<&PageBytes> {
        self.slot(pidx).map(|i| self.pool(i))
    }

    /// Give never-written page `pidx` a zeroed pool page and return its
    /// pool index.
    fn alloc(&mut self, pidx: usize) -> usize {
        if self.slots.len() <= pidx {
            self.slots.resize(pidx + 1, 0);
        }
        let i = self.owners.len();
        if i == self.chunks.len() * CHUNK_PAGES {
            self.chunks.push(vec![[0; PAGE_BYTES]; CHUNK_PAGES].into_boxed_slice());
        }
        self.owners.push(pidx);
        // 2^32 pool pages would be 16 TB of written bytes.
        self.slots[pidx] = (i + 1) as u32;
        i
    }

    /// Every written page with its bytes, in allocation order.
    fn pages(&self) -> impl Iterator<Item = (usize, &PageBytes)> {
        self.owners.iter().enumerate().map(|(i, &pidx)| (pidx, self.pool(i)))
    }

    /// The byte store's one read rule: copy the bytes at `addr` into
    /// `out`, each page's from this store when it holds the page, else
    /// from `base` (the frozen store under a sharded worker's overlay),
    /// else zeros — never-written memory reads as zeros, like a fresh
    /// anonymous mapping.
    #[inline]
    fn read(&self, base: Option<&PageStore>, addr: VAddr, out: &mut [u8]) {
        for_each_page(addr, out.len(), |pidx, in_page, range| {
            let dst = &mut out[range];
            match self.page(pidx).or_else(|| base?.page(pidx)) {
                Some(p) => dst.copy_from_slice(&p[in_page..in_page + dst.len()]),
                None => dst.fill(0),
            }
        });
    }

    /// Prefetch the pool line holding the byte at `addr`; `false` when
    /// its page was never written (nothing is stored to fetch).
    #[inline]
    fn prefetch(&self, addr: VAddr) -> bool {
        let Some(i) = self.slot((addr / SMALL_PAGE) as usize) else {
            return false;
        };
        crate::mix::prefetch(&self.pool(i)[(addr % SMALL_PAGE) as usize]);
        true
    }

    /// Store `data` at `addr`. Zeros written to a never-written page
    /// change nothing a read would see, so they allocate nothing.
    #[inline]
    fn write(&mut self, addr: VAddr, data: &[u8]) {
        for_each_page(addr, data.len(), |pidx, in_page, range| {
            let src = &data[range];
            let i = match self.slot(pidx) {
                Some(i) => i,
                None if src.iter().all(|&b| b == 0) => return,
                None => self.alloc(pidx),
            };
            self.pool_mut(i)[in_page..in_page + src.len()].copy_from_slice(src);
        });
    }
}

/// Equal when every address reads the same, however the pools are laid
/// out.
#[cfg(test)]
impl PartialEq for PageStore {
    fn eq(&self, other: &Self) -> bool {
        let zeros = [0; PAGE_BYTES];
        let covers = |a: &PageStore, b: &PageStore| {
            a.pages().all(|(pidx, bytes)| b.page(pidx).unwrap_or(&zeros) == bytes)
        };
        covers(self, other) && covers(other, self)
    }
}

/// Split the `len` bytes at `addr` at 4 KB page boundaries: `f(page,
/// offset in page, range within the caller's buffer)` once per page.
#[inline]
fn for_each_page(
    addr: VAddr,
    len: usize,
    mut f: impl FnMut(usize, usize, std::ops::Range<usize>),
) {
    let mut off = 0;
    while off < len {
        let a = addr + off as u64;
        let in_page = (a % SMALL_PAGE) as usize;
        let n = (PAGE_BYTES - in_page).min(len - off);
        f((a / SMALL_PAGE) as usize, in_page, off..off + n);
        off += n;
    }
}

// ---- sharded-region views ------------------------------------------

/// Bitmap words covering one 4 KB data page, one bit per byte.
const PAGE_BITMAP_WORDS: usize = PAGE_BYTES / 64;

/// Which bytes of one overlay page a worker wrote, one bit per byte.
type WriteMask = [u64; PAGE_BITMAP_WORDS];

/// Set the bits of bytes `range` in `mask`, a word at a time.
#[inline]
fn mark_written(mask: &mut WriteMask, range: std::ops::Range<usize>) {
    let mut b = range.start;
    while b < range.end {
        let bit = b % 64;
        let take = (64 - bit).min(range.end - b);
        mask[b / 64] |= (u64::MAX >> (64 - take)) << bit;
        b += take;
    }
}

/// The first byte at or after `from` whose bit is `set` (`PAGE_BYTES`
/// when there is none), found by scanning whole words.
#[inline]
fn next_bit(mask: &WriteMask, from: usize, set: bool) -> usize {
    let flip = if set { 0 } else { u64::MAX };
    let mut word = from / 64;
    if word >= PAGE_BITMAP_WORDS {
        return PAGE_BYTES;
    }
    let mut bits = (mask[word] ^ flip) & (u64::MAX << (from % 64));
    while bits == 0 {
        word += 1;
        if word == PAGE_BITMAP_WORDS {
            return PAGE_BYTES;
        }
        bits = mask[word] ^ flip;
    }
    word * 64 + bits.trailing_zeros() as usize
}

/// Per-worker isolated view of [`Memory`] for sharded parallel regions.
///
/// The view is a second [`PageTable`] store, so it runs the very rules
/// the serial path runs. Reads fall through to the frozen region-start
/// base; every mutation —
/// first-touch assignment, AutoNUMA reference state and migrations,
/// hint-fault epochs, data-plane writes — lands in a private overlay.
/// The worker therefore observes exactly `frozen base + its own
/// history`, making its execution (and every cycle it charges)
/// independent of how workers are partitioned across host threads. At
/// the region boundary the engine merges each worker's
/// [`MemDelta`] back in ascending-tid order, which keeps the merged
/// page table, capacity counters, and byte store a pure function of
/// the per-worker histories — byte-identical for every shard count.
///
/// Mapping and unmapping are not supported through a view (the engine
/// rejects them with a typed fault): address-space layout must be
/// settled in a serial region before workers shard.
#[derive(Debug)]
pub struct ShardMemView<'a> {
    base: &'a Memory,
    /// Overlay handle per 4 KB page of the base page table;
    /// `u32::MAX` = passthrough to the frozen base entry.
    page_slot: Vec<u32>,
    /// Overlaid page entries in first-write order (the merge order).
    page_entries: Vec<(usize, PageEntry)>,
    /// Private capacity snapshot: region-start counts plus this
    /// worker's own assignments and migrations (the capacity checks of
    /// first touch and AutoNUMA read it).
    node_used_pages: Vec<u64>,
    /// Copy-on-write data pages, cloned from the base on first write.
    data: PageStore,
    /// Per pool page of `data`, the bytes this worker wrote: the merge
    /// copies exactly those, so two workers writing disjoint parts of
    /// one page never clobber each other with stale base bytes.
    written: Vec<WriteMask>,
}

/// The owned overlay extracted from a [`ShardMemView`] when its worker
/// finishes, merged into the canonical [`Memory`] in tid order.
#[derive(Debug)]
pub struct MemDelta {
    pages: Vec<(usize, PageEntry)>,
    data: PageStore,
    written: Vec<WriteMask>,
}

impl<'a> ShardMemView<'a> {
    /// A fresh view over the frozen region-start state.
    #[must_use]
    pub fn new(base: &'a Memory) -> Self {
        ShardMemView {
            page_slot: vec![u32::MAX; base.pages.len()],
            page_entries: Vec::new(),
            node_used_pages: base.node_used_pages.clone(),
            data: PageStore::default(),
            written: Vec::new(),
            base,
        }
    }

    /// Detach the owned overlay for the tid-order merge.
    #[must_use]
    pub fn into_delta(self) -> MemDelta {
        MemDelta { pages: self.page_entries, data: self.data, written: self.written }
    }

    /// Host prefetch hint for the base page-table entry (overlay hits
    /// live in small hot vectors; hinting the base is the useful part).
    #[inline]
    pub fn prefetch_page(&self, addr: VAddr) {
        self.base.prefetch_page(addr);
    }

    /// Host prefetch hint for the stored byte at `addr`: the overlay
    /// page when this worker wrote it, else the frozen base page.
    #[inline]
    pub fn prefetch_bytes(&self, addr: VAddr) {
        if !self.data.prefetch(addr) {
            self.base.data.prefetch(addr);
        }
    }

    /// Write raw bytes into the copy-on-write overlay.
    #[inline]
    pub fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
        for_each_page(addr, data.len(), |pidx, in_page, range| {
            let i = match self.data.slot(pidx) {
                Some(i) => i,
                None => {
                    let i = self.data.alloc(pidx);
                    if let Some(base) = self.base.data.page(pidx) {
                        self.data.pool_mut(i).copy_from_slice(base);
                    }
                    self.written.push([0; PAGE_BITMAP_WORDS]);
                    i
                }
            };
            let span = in_page..in_page + range.len();
            self.data.pool_mut(i)[span.clone()].copy_from_slice(&data[range]);
            mark_written(&mut self.written[i], span);
        });
    }

    /// Read raw bytes: overlaid pages serve this worker's own writes,
    /// everything else comes from the frozen base (see
    /// [`PageStore::read`]).
    #[inline]
    pub fn read_bytes(&self, addr: VAddr, out: &mut [u8]) {
        self.data.read(Some(&self.base.data), addr, out);
    }
}

/// The overlay: entries this worker wrote, else the frozen base's, and
/// a private capacity snapshot (region-start counts plus this worker's
/// own assignments and migrations).
impl PageTable for ShardMemView<'_> {
    #[inline]
    fn entry(&self, page: usize) -> Option<PageEntry> {
        let slot = *self.page_slot.get(page)?;
        if slot == u32::MAX {
            self.base.pages.get(page).copied()
        } else {
            Some(self.page_entries[slot as usize].1)
        }
    }

    #[inline]
    fn set_entry(&mut self, page: usize, e: PageEntry) {
        let slot = self.page_slot[page];
        if slot == u32::MAX {
            self.page_slot[page] = self.page_entries.len() as u32;
            self.page_entries.push((page, e));
        } else {
            self.page_entries[slot as usize].1 = e;
        }
    }

    #[inline]
    fn used(&self) -> &[u64] {
        &self.node_used_pages
    }

    #[inline]
    fn used_mut(&mut self) -> &mut [u64] {
        &mut self.node_used_pages
    }

    #[inline]
    fn nodes(&self) -> &Nodes {
        &self.base.nodes
    }
}

impl Memory {
    /// Merge one worker's overlay back into the canonical state. Called
    /// in ascending-tid order at the end of a sharded region; later
    /// workers win conflicting page entries wholesale, and the capacity
    /// counters are re-derived per page from the `old node -> new node`
    /// transition so they stay consistent with the final page table no
    /// matter how many workers faulted or migrated the same page.
    pub fn merge_shard(&mut self, delta: MemDelta) {
        for (page, e) in delta.pages {
            if self.pages.len() <= page {
                self.pages.resize(page + 1, PageEntry::UNMAPPED);
            }
            let old = self.pages[page];
            if old.node != e.node {
                if old.node != NO_NODE {
                    self.node_used_pages[old.node as usize] -= 1;
                }
                if e.node != NO_NODE {
                    self.node_used_pages[e.node as usize] += 1;
                }
            }
            self.pages[page] = e;
        }
        // Copy each run of written bytes whole.
        for ((pidx, bytes), mask) in delta.data.pages().zip(&delta.written) {
            let start = pidx as u64 * SMALL_PAGE;
            let mut b = next_bit(mask, 0, true);
            while b < PAGE_BYTES {
                let e = next_bit(mask, b, false);
                self.data.write(start + b as u64, &bytes[b..e]);
                b = next_bit(mask, e, true);
            }
        }
    }
}

#[inline]
fn round_up(x: u64, align: u64) -> u64 {
    (x + align - 1) / align * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqp_topology::machines;

    fn mem() -> Memory {
        Memory::new(&machines::machine_b())
    }

    #[test]
    fn map_returns_aligned_nonzero_addresses() {
        let mut m = mem();
        let a = m.map(100, MemPolicy::FirstTouch, 0, false).unwrap();
        assert!(a >= SMALL_PAGE);
        assert_eq!(a % SMALL_PAGE, 0);
        let b = m.map(HUGE_PAGE, MemPolicy::FirstTouch, 0, true).unwrap();
        assert_eq!(b % HUGE_PAGE, 0);
        assert!(b > a);
    }

    #[test]
    fn first_touch_assigns_to_toucher() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 4, MemPolicy::FirstTouch, 0, false).unwrap();
        assert_eq!(m.node_of(a), None);
        let r = m.resolve_touch(a, 2).unwrap();
        assert!(r.faulted);
        assert_eq!(r.node, 2);
        assert_eq!(m.node_of(a), Some(2));
        // Second touch: no fault, same node, even from another node.
        let r2 = m.resolve_touch(a, 3).unwrap();
        assert!(!r2.faulted);
        assert_eq!(r2.node, 2);
    }

    #[test]
    fn localalloc_assigns_to_mapper() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::Localalloc, 3, false).unwrap();
        assert_eq!(m.node_of(a), Some(3));
    }

    #[test]
    fn preferred_assigns_to_chosen_node() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 8, MemPolicy::Preferred(1), 0, false).unwrap();
        for p in 0..8 {
            assert_eq!(m.node_of(a + p * SMALL_PAGE), Some(1));
        }
    }

    #[test]
    fn interleave_round_robins_across_nodes() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 8, MemPolicy::Interleave, 0, false).unwrap();
        let nodes: Vec<_> = (0..8)
            .map(|p| m.node_of(a + p * SMALL_PAGE).unwrap())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn thp_builds_huge_frames_and_interleaves_per_frame() {
        let mut m = mem();
        let a = m.map(2 * HUGE_PAGE, MemPolicy::Interleave, 0, true).unwrap();
        assert!(m.is_huge(a));
        // All 512 pages of frame 0 share a node; frame 1 gets the next.
        let n0 = m.node_of(a).unwrap();
        assert_eq!(m.node_of(a + HUGE_PAGE - SMALL_PAGE), Some(n0));
        let n1 = m.node_of(a + HUGE_PAGE).unwrap();
        assert_eq!(n1, (n0 + 1) % 4);
    }

    #[test]
    fn thp_off_never_builds_huge_frames() {
        let mut m = mem();
        let a = m.map(4 * HUGE_PAGE, MemPolicy::FirstTouch, 0, false).unwrap();
        assert!(!m.is_huge(a));
    }

    #[test]
    fn retier_pages_moves_between_tiers_within_budget() {
        let mut m = Memory::new(&machines::machine_b_cxl());
        assert!(m.is_slow_node(4) && !m.is_slow_node(0));
        let a = m.map(SMALL_PAGE * 4, MemPolicy::Preferred(0), 0, false).unwrap();
        for p in 0..4 {
            m.resolve_touch(a + p * SMALL_PAGE, 0).unwrap();
        }
        let pages: Vec<u64> = (0..4).map(|p| a / SMALL_PAGE + p).collect();
        // Budget of 3: only the first three pages demote to the slow node.
        assert_eq!(m.retier_pages(&pages, true, 3), 3);
        assert_eq!(m.node_of(a), Some(4));
        assert_eq!(m.node_of(a + 3 * SMALL_PAGE), Some(0));
        // Already-slow pages are skipped, so a second pass moves the rest.
        assert_eq!(m.retier_pages(&pages, true, 8), 1);
        // Promotion brings all four back to DRAM, within node capacities.
        assert_eq!(m.retier_pages(&pages, false, 8), 4);
        for p in 0..4 {
            let n = m.node_of(a + p * SMALL_PAGE).unwrap();
            assert!(!m.is_slow_node(n));
        }
        let machine = machines::machine_b_cxl();
        for (n, used) in m.node_used_pages().iter().enumerate() {
            assert!(*used <= machine.mem_bytes_of_node(n) / SMALL_PAGE);
        }
    }

    #[test]
    fn small_mapping_stays_small_even_with_thp() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 16, MemPolicy::FirstTouch, 0, true).unwrap();
        assert!(!m.is_huge(a));
    }

    #[test]
    fn huge_fault_faults_whole_frame() {
        let mut m = mem();
        let a = m.map(HUGE_PAGE, MemPolicy::FirstTouch, 0, true).unwrap();
        let r = m.resolve_touch(a + 5 * SMALL_PAGE, 1).unwrap();
        assert!(r.faulted);
        assert_eq!(r.fault_pages, PAGES_PER_HUGE);
        // Any other page in the frame is already faulted on node 1.
        let r2 = m.resolve_touch(a, 2).unwrap();
        assert!(!r2.faulted);
        assert_eq!(r2.node, 1);
    }

    #[test]
    fn unmap_releases_capacity() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 4, MemPolicy::Localalloc, 0, false).unwrap();
        assert_eq!(m.node_used_pages()[0], 4);
        m.unmap(a, SMALL_PAGE * 4).unwrap();
        assert_eq!(m.node_used_pages()[0], 0);
        assert!(!m.is_mapped(a));
    }

    #[test]
    fn capacity_overflow_falls_back_to_nearest_node() {
        // A tiny machine: 2 pages per node.
        let mut machine = machines::machine_b();
        machine.mem_per_node_bytes = 2 * SMALL_PAGE;
        let mut m = Memory::new(&machine);
        let a = m.map(SMALL_PAGE * 3, MemPolicy::Preferred(0), 0, false).unwrap();
        let nodes: Vec<_> = (0..3)
            .map(|p| m.node_of(a + p * SMALL_PAGE).unwrap())
            .collect();
        assert_eq!(&nodes[..2], &[0, 0]);
        assert_ne!(nodes[2], 0, "third page must spill off the full node");
    }

    #[test]
    fn autonuma_migrates_after_threshold_remote_touches() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::Localalloc, 0, false).unwrap();
        m.resolve_touch(a, 0).unwrap();
        assert_eq!(m.autonuma_touch(a, 1, 2, true), (0, false)); // 1st remote hit
        assert_eq!(m.autonuma_touch(a, 1, 2, true), (1, false)); // 2nd: migrate
        assert_eq!(m.node_of(a), Some(1));
        assert_eq!(m.node_used_pages()[0], 0);
        assert_eq!(m.node_used_pages()[1], 1);
    }

    #[test]
    fn autonuma_local_touch_resets_counter() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::Localalloc, 0, false).unwrap();
        m.resolve_touch(a, 0).unwrap();
        assert_eq!(m.autonuma_touch(a, 1, 3, true), (0, false));
        assert_eq!(m.autonuma_touch(a, 1, 3, true), (0, false));
        assert_eq!(m.autonuma_touch(a, 0, 3, true), (0, false)); // local resets
        assert_eq!(m.autonuma_touch(a, 1, 3, true), (0, false));
        assert_eq!(m.autonuma_touch(a, 1, 3, true), (0, false));
        assert_eq!(m.node_of(a), Some(0), "page must not have migrated yet");
    }

    #[test]
    fn backing_store_round_trips_and_zero_fills() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::FirstTouch, 0, false).unwrap();
        m.write_bytes(a + 10, &[1, 2, 3]);
        let mut buf = [0u8; 5];
        m.read_bytes(a + 9, &mut buf);
        assert_eq!(buf, [0, 1, 2, 3, 0]);
    }

    #[test]
    fn byte_prefetch_finds_overlay_then_base_and_skips_unwritten_pages() {
        let mut m = mem();
        let a = m.map(3 * SMALL_PAGE, MemPolicy::FirstTouch, 0, false).unwrap();
        m.write_bytes(a, &[7]);
        let before = m.clone();
        assert!(m.data.prefetch(a + 100), "written page");
        assert!(!m.data.prefetch(a + SMALL_PAGE), "mapped, never written");
        assert!(!m.data.prefetch(0) && !m.data.prefetch(VAddr::MAX), "unmapped");
        let mut view = ShardMemView::new(&m);
        view.write_bytes(a + SMALL_PAGE, &[9]);
        assert!(view.data.prefetch(a + SMALL_PAGE), "overlay page");
        assert!(!view.data.prefetch(a), "base-only page falls through");
        for addr in [0, a, a + SMALL_PAGE, a + 2 * SMALL_PAGE, VAddr::MAX] {
            m.prefetch_bytes(addr);
            view.prefetch_bytes(addr);
        }
        drop(view);
        assert!(m == before, "a byte prefetch changed memory");
    }

    #[test]
    fn map_shared_spreads_first_touch_policies() {
        let mut m = mem();
        let a = m.map_shared(SMALL_PAGE * 8, MemPolicy::FirstTouch, 0, false).unwrap();
        let nodes: Vec<_> = (0..8)
            .map(|p| m.node_of(a + p * SMALL_PAGE).unwrap())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Explicit policies keep their meaning.
        let b = m.map_shared(SMALL_PAGE * 2, MemPolicy::Preferred(2), 0, false).unwrap();
        assert_eq!(m.node_of(b), Some(2));
    }

    #[test]
    fn hint_faults_fire_once_per_page_per_epoch() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 2, MemPolicy::Localalloc, 0, false).unwrap();
        assert!(m.hint_fault_due(a, 1), "first touch in epoch 1 faults");
        assert!(!m.hint_fault_due(a, 1), "second touch does not");
        assert!(m.hint_fault_due(a + SMALL_PAGE, 1), "other page faults");
        assert!(m.hint_fault_due(a, 2), "new epoch faults again");
    }

    #[test]
    fn zero_byte_map_is_an_error_not_an_abort() {
        let mut m = mem();
        assert!(matches!(
            m.map(0, MemPolicy::FirstTouch, 0, false),
            Err(SimError::InvalidMapping { .. })
        ));
    }

    #[test]
    fn unmapped_touch_is_an_error_not_an_abort() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::Localalloc, 0, false).unwrap();
        // Far beyond anything mapped.
        let err = m.resolve_touch(a + 100 * SMALL_PAGE, 0).unwrap_err();
        assert!(matches!(err, SimError::InvalidMapping { .. }));
        // Unmapping a never-mapped range errors too.
        assert!(m.unmap(a + 100 * SMALL_PAGE, SMALL_PAGE).is_err());
    }

    #[test]
    fn bind_fails_strictly_and_rolls_back() {
        let mut machine = machines::machine_b();
        machine.mem_per_node_bytes = 2 * SMALL_PAGE;
        let mut m = Memory::new(&machine);
        // Fits: 2 pages on node 3.
        let a = m.map(SMALL_PAGE * 2, MemPolicy::Bind(3), 0, false).unwrap();
        assert_eq!(m.node_of(a), Some(3));
        // Does not fit: node 3 is full, and Bind must not spill.
        let err = m.map(SMALL_PAGE, MemPolicy::Bind(3), 0, false).unwrap_err();
        assert_eq!(err, SimError::OutOfMemory { node: 3, requested_pages: 1 });
        // Other nodes still untouched; failed map consumed nothing.
        assert_eq!(m.node_used_pages(), &[0, 0, 0, 2]);
        // A partial multi-page Bind map rolls back what it placed.
        let used_before = m.node_used_pages().to_vec();
        let high_before = m.mapped_high_water();
        assert!(m.map(SMALL_PAGE * 4, MemPolicy::Bind(0), 0, false).is_err());
        assert_eq!(m.node_used_pages(), &used_before[..]);
        assert_eq!(m.mapped_high_water(), high_before, "failed map leaked address space");
    }

    #[test]
    fn machine_wide_exhaustion_fails_every_policy() {
        let mut machine = machines::machine_b();
        machine.mem_per_node_bytes = SMALL_PAGE;
        let mut m = Memory::new(&machine);
        // 4 nodes x 1 page each.
        m.map(SMALL_PAGE * 4, MemPolicy::Interleave, 0, false).unwrap();
        for policy in [
            MemPolicy::Interleave,
            MemPolicy::Localalloc,
            MemPolicy::Preferred(0),
        ] {
            let err = m.map(SMALL_PAGE, policy, 0, false).unwrap_err();
            assert!(matches!(err, SimError::OutOfMemory { .. }), "{policy:?}");
        }
        // First Touch defers: the map succeeds, the *touch* OOMs.
        let a = m.map(SMALL_PAGE, MemPolicy::FirstTouch, 0, false).unwrap();
        let err = m.resolve_touch(a, 2).unwrap_err();
        assert_eq!(err, SimError::OutOfMemory { node: 2, requested_pages: 1 });
    }

    #[test]
    fn blocked_migration_leaves_page_and_reports() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE, MemPolicy::Localalloc, 0, false).unwrap();
        m.resolve_touch(a, 0).unwrap();
        assert_eq!(m.autonuma_touch(a, 1, 2, false), (0, false)); // below threshold
        assert_eq!(m.autonuma_touch(a, 1, 2, false), (0, true)); // blocked
        assert_eq!(m.node_of(a), Some(0), "blocked migration must not move the page");
        // After the failed attempt the hit count was reset.
        assert_eq!(m.autonuma_touch(a, 1, 2, true), (0, false));
        assert_eq!(m.autonuma_touch(a, 1, 2, true), (1, false));
        assert_eq!(m.node_of(a), Some(1));
    }

    #[test]
    fn offline_evacuates_pages_and_blocks_placement() {
        let mut m = mem();
        let a = m.map(SMALL_PAGE * 8, MemPolicy::Interleave, 0, false).unwrap();
        for p in 0..8 {
            m.resolve_touch(a + p * SMALL_PAGE, 0).unwrap();
        }
        assert_eq!(m.node_used_pages()[1], 2);
        let moved = m.set_node_offline(1).unwrap();
        assert_eq!(moved, 2);
        assert!(m.is_node_offline(1));
        assert_eq!(m.node_used_pages()[1], 0, "dead node must hold no pages");
        for p in 0..8 {
            assert_ne!(m.node_of(a + p * SMALL_PAGE).unwrap(), 1);
        }
        // New placements skip the dead node, Bind to it fails typed.
        let b = m.map(SMALL_PAGE * 8, MemPolicy::Interleave, 0, false).unwrap();
        for p in 0..8 {
            assert_ne!(m.node_of(b + p * SMALL_PAGE).unwrap(), 1);
        }
        assert!(matches!(
            m.map(SMALL_PAGE, MemPolicy::Bind(1), 0, false),
            Err(SimError::NodeOffline { node: 1 })
        ));
        // Re-offlining is a no-op.
        assert_eq!(m.set_node_offline(1).unwrap(), 0);
    }

    #[test]
    fn offline_evacuates_huge_frames_as_units() {
        let mut m = mem();
        let a = m.map(4 * HUGE_PAGE, MemPolicy::Interleave, 0, true).unwrap();
        let dead = m.node_of(a + 2 * HUGE_PAGE).unwrap();
        let moved = m.set_node_offline(dead).unwrap();
        assert_eq!(moved, PAGES_PER_HUGE);
        // The evacuated frame still shares a single (live) home node.
        let home = m.node_of(a + 2 * HUGE_PAGE).unwrap();
        assert_ne!(home, dead);
        assert_eq!(m.node_of(a + 3 * HUGE_PAGE - SMALL_PAGE), Some(home));
        let total: u64 = m.node_used_pages().iter().sum();
        assert_eq!(total, 4 * PAGES_PER_HUGE, "evacuation must not leak capacity");
    }

    #[test]
    fn last_live_node_cannot_go_offline() {
        let mut m = mem();
        for n in 0..3 {
            m.set_node_offline(n).unwrap();
        }
        assert!(matches!(
            m.set_node_offline(3),
            Err(SimError::NodeOffline { node: 3 })
        ));
        assert!(!m.is_node_offline(3));
    }

    /// Bytes the store proptests address: six pages from page 1.
    const SPAN: usize = 6 * PAGE_BYTES;
    /// The longest read or write: more than two pages.
    const MAX_LEN: usize = 2 * PAGE_BYTES + 300;

    /// `len` bytes of `seed`'s pattern (some zero), or all zeros.
    fn bytes(seed: u64, len: usize, zeros: bool) -> Vec<u8> {
        (0..len as u64)
            .map(|i| seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59)
            .map(|b| if zeros { 0 } else { b as u8 })
            .collect()
    }

    /// A write of `(offset from page 1, length, zeros, seed)`.
    type Write = (usize, usize, bool, u64);

    fn write_both(m: &mut Memory, dense: &mut [u8], &(off, len, zeros, seed): &Write) {
        let data = bytes(seed, len, zeros);
        m.write_bytes(SMALL_PAGE + off as u64, &data);
        dense[off..off + len].copy_from_slice(&data);
    }

    fn read_all(read: impl Fn(VAddr, &mut [u8])) -> Vec<u8> {
        let mut out = vec![0xAA; SPAN + MAX_LEN];
        read(SMALL_PAGE, &mut out);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Page-crossing reads and writes, zero writes, and reads of
        /// never-written pages agree with a dense byte array, and the
        /// store holds a pool page for exactly the pages that were ever
        /// written a nonzero byte.
        #[test]
        fn sparse_store_matches_a_dense_reference(
            ops in proptest::prop::collection::vec(
                (0..SPAN, 0..MAX_LEN, 0u8..4, proptest::any::<bool>(), proptest::any::<u64>()),
                1..60,
            ),
        ) {
            let mut m = mem();
            let mut dense = vec![0u8; SPAN + MAX_LEN];
            let mut nonzero_pages = std::collections::BTreeSet::new();
            for (off, len, kind, write, seed) in ops {
                let addr = SMALL_PAGE + off as u64;
                if write {
                    let op = (off, len, kind == 0, seed);
                    write_both(&mut m, &mut dense, &op);
                    let data = bytes(seed, len, kind == 0);
                    for_each_page(addr, len, |pidx, _, range| {
                        if data[range].iter().any(|&b| b != 0) {
                            nonzero_pages.insert(pidx);
                        }
                    });
                } else {
                    let mut out = vec![0xAA; len];
                    m.read_bytes(addr, &mut out);
                    proptest::prop_assert_eq!(&out[..], &dense[off..off + len]);
                }
            }
            proptest::prop_assert_eq!(read_all(|a, o| m.read_bytes(a, o)), dense);
            let mut far = [0xAA; 64];
            m.read_bytes(1000 * SMALL_PAGE - 10, &mut far);
            proptest::prop_assert!(far.iter().all(|&b| b == 0));
            proptest::prop_assert_eq!(m.data_pages(), nonzero_pages.len() as u64);
        }

        /// Copy-on-write overlays read the frozen base plus their own
        /// writes, and merging 1–3 of them in tid order leaves exactly
        /// what their writes, applied in tid order, leave in a dense
        /// array — disjoint bytes of one page included.
        #[test]
        fn shard_overlays_merge_like_tid_ordered_writes(
            base_ops in proptest::prop::collection::vec(
                (0..SPAN, 0..MAX_LEN, proptest::any::<bool>(), proptest::any::<u64>()),
                1..8,
            ),
            worker_ops in proptest::prop::collection::vec(
                (0usize..3, 0..SPAN, 0..MAX_LEN, 0u8..4, proptest::any::<u64>()),
                1..30,
            ),
            workers in 1usize..4,
        ) {
            let mut m = mem();
            let mut dense = vec![0u8; SPAN + MAX_LEN];
            for &(off, len, zeros, seed) in &base_ops {
                write_both(&mut m, &mut dense, &(off, len, zeros, seed));
            }
            let ops_of = |tid: usize| -> Vec<Write> {
                worker_ops
                    .iter()
                    .filter(|op| op.0 % workers == tid)
                    .map(|&(_, off, len, kind, seed)| (off, len, kind == 0, seed))
                    .collect()
            };
            let mut deltas = Vec::new();
            for tid in 0..workers {
                let mut view = ShardMemView::new(&m);
                let mut own = dense.clone();
                for &(off, len, zeros, seed) in &ops_of(tid) {
                    let data = bytes(seed, len, zeros);
                    view.write_bytes(SMALL_PAGE + off as u64, &data);
                    own[off..off + len].copy_from_slice(&data);
                }
                proptest::prop_assert_eq!(read_all(|a, o| view.read_bytes(a, o)), own);
                deltas.push(view.into_delta());
            }
            let mut merged = dense.clone();
            for tid in 0..workers {
                for &(off, len, zeros, seed) in &ops_of(tid) {
                    merged[off..off + len].copy_from_slice(&bytes(seed, len, zeros));
                }
            }
            for d in deltas {
                m.merge_shard(d);
            }
            proptest::prop_assert_eq!(read_all(|a, o| m.read_bytes(a, o)), merged.clone());
            // Content equality, whatever order the pools filled in.
            let mut fresh = PageStore::default();
            fresh.write(SMALL_PAGE, &merged);
            proptest::prop_assert!(m.data == fresh);
        }
    }

    /// The serial-vs-sharded differential's memory: machine B, whose node
    /// 0 is full when `tight` (1 024 pages per node, two huge frames
    /// bound there), with a deferred huge frame and small interleaved
    /// and first-touch mappings. Returns the memory and each mapping's
    /// `(start, pages)`; a fifth, unmapped range follows the last.
    fn differential_memory(tight: bool) -> (Memory, [(VAddr, u64); 5]) {
        let mut machine = machines::machine_b();
        if tight {
            machine.mem_per_node_bytes = 1024 * SMALL_PAGE;
        }
        let mut m = Memory::new(&machine);
        let mut map = |bytes, policy| (m.map(bytes, policy, 0, true).unwrap(), bytes / SMALL_PAGE);
        let regions = [
            map(2 * HUGE_PAGE, MemPolicy::Preferred(0)),
            map(HUGE_PAGE, MemPolicy::FirstTouch),
            map(64 * SMALL_PAGE, MemPolicy::Interleave),
            map(64 * SMALL_PAGE, MemPolicy::FirstTouch),
        ];
        let [a, b, c, d] = regions;
        assert_eq!(tight, m.node_used_pages()[0] == 1024, "node 0 full iff tight");
        let unmapped = (m.mapped_high_water(), 64);
        (m, [a, b, c, d, unmapped])
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// One worker cannot observe isolation, so the page-table rules
        /// run through one [`ShardMemView`] and merged back must leave
        /// what they leave run on [`Memory`] directly: the same result
        /// from every op, and the same page table, per-node page counts
        /// and bytes — a full target node included.
        #[test]
        fn one_shard_worker_matches_serial_memory(
            ops in proptest::prop::collection::vec(
                (0u8..8, 0usize..5, 0usize..4096, 0usize..4, proptest::any::<u64>()),
                1..200,
            ),
            tight in proptest::any::<bool>(),
        ) {
            let (mut serial, regions) = differential_memory(tight);
            let mut merged = serial.clone();
            let mut view = ShardMemView::new(&merged);
            for (kind, region, page, node, seed) in ops {
                let (start, pages) = regions[region];
                let addr = start + (page as u64 % pages) * SMALL_PAGE + seed % SMALL_PAGE;
                match kind {
                    0 => proptest::prop_assert_eq!(
                        serial.resolve_touch(addr, node),
                        view.resolve_touch(addr, node)
                    ),
                    // A touch then its AutoNUMA bookkeeping, as the
                    // engine runs them; kind 2 is a blocked migration.
                    1..=2 | 6..=7 => {
                        let touched = serial.resolve_touch(addr, node);
                        proptest::prop_assert_eq!(&touched, &view.resolve_touch(addr, node));
                        if touched.is_ok() {
                            let allow = kind != 2;
                            proptest::prop_assert_eq!(
                                serial.autonuma_touch(addr, node, 2, allow),
                                view.autonuma_touch(addr, node, 2, allow)
                            );
                        }
                    }
                    3 => {
                        let epoch = (seed % 3) as u8;
                        proptest::prop_assert_eq!(
                            serial.hint_fault_due(addr, epoch),
                            view.hint_fault_due(addr, epoch)
                        );
                    }
                    4 => {
                        let data = bytes(seed, page % 300, seed % 4 == 0);
                        serial.write_bytes(addr, &data);
                        view.write_bytes(addr, &data);
                    }
                    _ => {
                        let (mut a, mut b) = (vec![0xAA; page % 300], vec![0x55; page % 300]);
                        serial.read_bytes(addr, &mut a);
                        view.read_bytes(addr, &mut b);
                        proptest::prop_assert_eq!(a, b);
                    }
                }
            }
            let delta = view.into_delta();
            merged.merge_shard(delta);
            proptest::prop_assert_eq!(serial.node_used_pages(), merged.node_used_pages());
            let differ = serial.pages.iter().zip(&merged.pages).position(|(a, b)| a != b);
            proptest::prop_assert_eq!(differ, None, "page tables differ");
            proptest::prop_assert!(serial.data == merged.data, "byte stores differ");
            proptest::prop_assert!(serial == merged);
        }
    }

    #[test]
    fn store_equality_compares_contents_not_layout() {
        let (mut a, mut b) = (PageStore::default(), PageStore::default());
        a.write(SMALL_PAGE, &[1]);
        a.write(3 * SMALL_PAGE, &[2]);
        b.write(3 * SMALL_PAGE, &[2]);
        assert!(a != b);
        b.write(SMALL_PAGE, &[1]);
        assert!(a == b, "same bytes, pools filled in another order");
        // A page written back to zeros equals one never written.
        b.write(5 * SMALL_PAGE + 7, &[9]);
        b.write(5 * SMALL_PAGE + 7, &[0]);
        assert!(a == b);
    }

    #[test]
    fn write_masks_scan_whole_runs() {
        let mut mask = [0; PAGE_BITMAP_WORDS];
        mark_written(&mut mask, 3..70);
        mark_written(&mut mask, 128..192);
        mark_written(&mut mask, 4000..PAGE_BYTES);
        let mut runs = Vec::new();
        let mut b = next_bit(&mask, 0, true);
        while b < PAGE_BYTES {
            let e = next_bit(&mask, b, false);
            runs.push(b..e);
            b = next_bit(&mask, e, true);
        }
        assert_eq!(runs, vec![3..70, 128..192, 4000..PAGE_BYTES]);
    }

    #[test]
    fn tlb_tags_differ_by_page_size() {
        let mut m = mem();
        let a = m.map(HUGE_PAGE, MemPolicy::FirstTouch, 0, true).unwrap();
        let t1 = tlb_tag(a, true);
        let t2 = tlb_tag(a + HUGE_PAGE - 1, true);
        assert_eq!(t1, t2, "whole huge frame shares one 2MB translation");
        assert_ne!(tlb_tag(a, false), tlb_tag(a + SMALL_PAGE, false));
    }
}

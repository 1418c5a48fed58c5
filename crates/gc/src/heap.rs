//! The heap facade: allocation, field access with write barrier, and the
//! minor/major collection algorithms for both collector configurations.

use std::collections::VecDeque;

use hpmopt_bytecode::{ClassId, ElemKind, Program, OBJECT_HEADER_BYTES};
use hpmopt_prim::IntMap;

use crate::classtable::ClassTable;
use crate::freelist::{MsSpace, BLOCK_BYTES};
use crate::los::LargeObjectSpace;
use crate::nursery::Nursery;
use crate::object::{flags, Address, ObjectModel, TypeTag};
use crate::policy::CoallocPolicy;
use crate::raw::RawHeap;
use crate::remset::RememberedSet;
use crate::semispace::CopySpace;
use crate::stats::{GcCostModel, GcStats};
use crate::LOS_THRESHOLD_BYTES;

/// An object's reference slots, walked by index so that tracing
/// allocates nothing: a class instance's reference fields, or a
/// reference array's elements.
#[derive(Debug, Clone, Copy)]
struct RefSlots {
    obj: Address,
    /// The instance's class; `None` for an array.
    class: Option<ClassId>,
    /// Number of slots.
    len: u64,
}

/// Which mature-space policy the heap uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectorKind {
    /// Generational mark-and-sweep: free-list mature space (the paper's
    /// baseline and optimization target).
    #[default]
    GenMs,
    /// Generational copying: semispace mature space (Figure 6 comparison).
    GenCopy,
}

impl std::fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectorKind::GenMs => f.write_str("GenMS"),
            CollectorKind::GenCopy => f.write_str("GenCopy"),
        }
    }
}

/// Heap sizing and collector configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapConfig {
    /// Mature-space region size in bytes (the "heap size" the evaluation
    /// varies between 1× and 4× of each program's minimum).
    pub heap_bytes: u64,
    /// Physical nursery size.
    pub nursery_bytes: u64,
    /// Large-object-space size.
    pub los_bytes: u64,
    /// Mature-space policy.
    pub collector: CollectorKind,
    /// Cycle costs charged for collections.
    pub cost: GcCostModel,
    /// Fault injection: skip zeroing of freshly allocated objects and
    /// arrays. Recreates the historical stale-nursery-reference bug (see
    /// DESIGN.md "Calibration notes") so the stress engine's oracles can
    /// prove they detect it. Never enable outside tests.
    pub fault_skip_zeroing: bool,
}

impl HeapConfig {
    /// A small configuration for unit tests (512 KB mature, 64 KB nursery).
    #[must_use]
    pub fn small() -> Self {
        HeapConfig {
            heap_bytes: 512 * 1024,
            nursery_bytes: 64 * 1024,
            los_bytes: 1024 * 1024,
            collector: CollectorKind::GenMs,
            cost: GcCostModel::default(),
            fault_skip_zeroing: false,
        }
    }

    /// A default-sized configuration (16 MB mature, 4 MB nursery).
    #[must_use]
    pub fn standard() -> Self {
        HeapConfig {
            heap_bytes: 16 * 1024 * 1024,
            nursery_bytes: 4 * 1024 * 1024,
            los_bytes: 64 * 1024 * 1024,
            collector: CollectorKind::GenMs,
            cost: GcCostModel::default(),
            fault_skip_zeroing: false,
        }
    }

    /// Switch the collector.
    #[must_use]
    pub fn with_collector(mut self, collector: CollectorKind) -> Self {
        self.collector = collector;
        self
    }

    fn rounded_heap_bytes(&self) -> u64 {
        self.heap_bytes.div_ceil(BLOCK_BYTES) * BLOCK_BYTES
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig::standard()
    }
}

/// Returned by allocation when a collection must run first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcNeeded {
    /// The nursery is full: run a minor collection.
    Minor,
    /// The mature or large-object space is full: run a major collection.
    Major,
}

/// Fatal heap errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcError {
    /// Live data exceeds the configured heap size.
    OutOfMemory,
}

impl std::fmt::Display for GcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcError::OutOfMemory => f.write_str("live data exceeds the configured heap size"),
        }
    }
}

impl std::error::Error for GcError {}

// One variant exists per heap for its whole lifetime, so the size
// skew between the spaces is irrelevant and boxing would only add an
// indirection to every mature-space access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Mature {
    Ms(MsSpace),
    Copy(CopySpace),
}

/// The generational heap.
///
/// See the [crate-level documentation](crate) for the design overview.
#[derive(Debug, Clone)]
pub struct Heap {
    raw: RawHeap,
    classes: ClassTable,
    nursery: Nursery,
    mature: Mature,
    los: LargeObjectSpace,
    remset: RememberedSet,
    stats: GcStats,
    cost: GcCostModel,
    fault_skip_zeroing: bool,
    /// GenMS cells holding a co-allocated pair: cell (parent) address →
    /// child address within the same cell. Needed by the sweep to keep a
    /// cell whose parent died but whose child is still live. Only ever
    /// probed, so its iteration order cannot leak into a result.
    coalloc_children: IntMap<u64, Address>,
    mature_start: Address,
}

impl Heap {
    /// Create a heap for `program` with the given configuration.
    #[must_use]
    pub fn new(program: &Program, config: HeapConfig) -> Self {
        let heap_bytes = config.rounded_heap_bytes();
        let total = config.nursery_bytes + heap_bytes + config.los_bytes;
        let raw = RawHeap::new(total);
        let nursery_start = raw.base();
        let mature_start = nursery_start.offset(config.nursery_bytes);
        let los_start = mature_start.offset(heap_bytes);
        let los_end = los_start.offset(config.los_bytes);

        let mature = match config.collector {
            CollectorKind::GenMs => Mature::Ms(MsSpace::new(mature_start, los_start)),
            CollectorKind::GenCopy => Mature::Copy(CopySpace::new(mature_start, los_start)),
        };
        Heap {
            raw,
            classes: ClassTable::new(program),
            nursery: Nursery::new(nursery_start, mature_start),
            mature,
            los: LargeObjectSpace::new(los_start, los_end),
            remset: RememberedSet::new(),
            stats: GcStats::default(),
            cost: config.cost,
            fault_skip_zeroing: config.fault_skip_zeroing,
            coalloc_children: IntMap::default(),
            mature_start,
        }
    }

    // ----- allocation --------------------------------------------------

    /// Allocate an instance of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`GcNeeded`] when a collection must run before retrying.
    pub fn alloc_object(&mut self, class: ClassId) -> Result<Address, GcNeeded> {
        let size = self.classes.layout(class).size;
        let obj = self.alloc_raw(size)?;
        ObjectModel::init_header(&mut self.raw, obj, TypeTag::Class(class), size, 0);
        // Fields must be zeroed (Java semantics): the nursery recycles its
        // region, and a collection between this allocation and the
        // program's own field initialization would otherwise trace stale
        // reference bytes left by the previous generation.
        if !self.fault_skip_zeroing {
            self.raw
                .zero(obj.offset(OBJECT_HEADER_BYTES), size - OBJECT_HEADER_BYTES);
        }
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        Ok(obj)
    }

    /// Allocate an array of `len` elements of `kind` (zero-initialized).
    ///
    /// # Errors
    ///
    /// Returns [`GcNeeded`] when a collection must run before retrying.
    pub fn alloc_array(&mut self, kind: ElemKind, len: u64) -> Result<Address, GcNeeded> {
        let size = ObjectModel::array_size(kind, len);
        let obj = self.alloc_raw(size)?;
        ObjectModel::init_header(&mut self.raw, obj, TypeTag::Array(kind), size, len);
        if !self.fault_skip_zeroing {
            self.raw
                .zero(obj.offset(OBJECT_HEADER_BYTES), size - OBJECT_HEADER_BYTES);
        }
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size;
        Ok(obj)
    }

    fn alloc_raw(&mut self, size: u64) -> Result<Address, GcNeeded> {
        if size > LOS_THRESHOLD_BYTES {
            self.stats.large_objects += 1;
            return self.los.alloc(size).ok_or(GcNeeded::Major);
        }
        self.nursery.alloc(size).ok_or(GcNeeded::Minor)
    }

    // ----- field and array access --------------------------------------

    /// Read a field slot.
    #[inline]
    #[must_use]
    pub fn get_field(&self, obj: Address, offset: u64) -> u64 {
        self.raw.read_u64(obj.offset(offset))
    }

    /// Write a field slot, applying the generational write barrier when
    /// `is_ref` (mature/LOS object pointing into the nursery → slot is
    /// remembered).
    #[inline]
    pub fn set_field(&mut self, obj: Address, offset: u64, value: u64, is_ref: bool) {
        let slot = obj.offset(offset);
        self.raw.write_u64(slot, value);
        if is_ref && !self.nursery.contains(obj) && self.nursery.contains(Address(value)) {
            self.remset.record(slot);
        }
    }

    /// Address of a field slot (what the memory simulator sees).
    #[inline]
    #[must_use]
    pub fn field_addr(&self, obj: Address, offset: u64) -> Address {
        obj.offset(offset)
    }

    /// Address of array element `idx`.
    #[inline]
    #[must_use]
    pub fn elem_addr(&self, obj: Address, kind: ElemKind, idx: u64) -> Address {
        ObjectModel::array_data(obj).offset(idx * kind.width())
    }

    /// Read array element `idx`.
    #[inline]
    #[must_use]
    pub fn array_get(&self, obj: Address, kind: ElemKind, idx: u64) -> u64 {
        debug_assert!(idx < self.array_len(obj));
        self.raw
            .read_uint(self.elem_addr(obj, kind, idx), kind.width())
    }

    /// Write array element `idx`, with the write barrier for ref arrays.
    #[inline]
    pub fn array_set(&mut self, obj: Address, kind: ElemKind, idx: u64, value: u64) {
        debug_assert!(idx < self.array_len(obj));
        let addr = self.elem_addr(obj, kind, idx);
        self.raw.write_uint(addr, kind.width(), value);
        if kind.is_ref() && !self.nursery.contains(obj) && self.nursery.contains(Address(value)) {
            self.remset.record(addr);
        }
    }

    /// The object's type tag.
    #[inline]
    #[must_use]
    pub fn type_of(&self, obj: Address) -> TypeTag {
        ObjectModel::type_tag(&self.raw, obj)
    }

    /// The object's class, or `None` for an array. An array's element
    /// kind is still decoded, so a corrupt array tag panics here as in
    /// [`Heap::type_of`].
    #[inline]
    #[must_use]
    pub fn class_of(&self, obj: Address) -> Option<ClassId> {
        match self.type_of(obj) {
            TypeTag::Class(c) => Some(c),
            TypeTag::Array(_) => None,
        }
    }

    /// Array length (0 for instances).
    #[inline]
    #[must_use]
    pub fn array_len(&self, obj: Address) -> u64 {
        ObjectModel::array_len(&self.raw, obj)
    }

    /// Total size of the object in bytes.
    #[must_use]
    pub fn size_of(&self, obj: Address) -> u64 {
        ObjectModel::size(&self.raw, obj)
    }

    /// Whether the co-allocation bit is set on the object.
    #[must_use]
    pub fn is_coallocated(&self, obj: Address) -> bool {
        ObjectModel::flags(&self.raw, obj) & flags::COALLOC != 0
    }

    /// Whether `addr` is a plausible object address inside any space.
    #[must_use]
    pub fn in_heap(&self, addr: Address) -> bool {
        self.raw.contains(addr)
    }

    /// Whether `addr` lies in the nursery.
    #[must_use]
    pub fn in_nursery(&self, addr: Address) -> bool {
        self.nursery.contains(addr)
    }

    // ----- collection scheduling helpers -------------------------------

    /// Free bytes available for promotion in the mature space.
    #[must_use]
    pub fn mature_free_bytes(&self) -> u64 {
        match &self.mature {
            Mature::Ms(ms) => ms.free_bytes(),
            Mature::Copy(c) => c.free_bytes(),
        }
    }

    /// Bytes used in the mature space.
    #[must_use]
    pub fn mature_used_bytes(&self) -> u64 {
        match &self.mature {
            Mature::Ms(ms) => ms.used_bytes(),
            Mature::Copy(c) => c.used_bytes(),
        }
    }

    /// Whether a minor collection can promote the worst case without
    /// exhausting the mature space. When false the caller should run a
    /// major collection first.
    #[must_use]
    pub fn minor_is_safe(&self) -> bool {
        // Slack covers size-class rounding (< 2×) plus partial blocks.
        let worst = self.nursery.used() * 2 + 8 * BLOCK_BYTES;
        self.mature_free_bytes() >= worst
    }

    /// Bytes currently allocated in the nursery.
    #[must_use]
    pub fn nursery_used(&self) -> u64 {
        self.nursery.used()
    }

    /// Collection statistics so far.
    #[must_use]
    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Remembered-set size (diagnostics).
    #[must_use]
    pub fn remset_len(&self) -> usize {
        self.remset.len()
    }

    // ----- minor collection ---------------------------------------------

    /// Nursery collection: promote all reachable nursery objects into the
    /// mature space, consulting `policy` for co-allocation opportunities
    /// (GenMS only). Updates `roots` in place.
    ///
    /// # Errors
    ///
    /// [`GcError::OutOfMemory`] when promotion exhausts the mature space;
    /// callers avoid this by checking [`Heap::minor_is_safe`] and running a
    /// major collection first.
    pub fn collect_minor(
        &mut self,
        roots: &mut [Address],
        policy: &dyn CoallocPolicy,
    ) -> Result<(), GcError> {
        self.stats.minor_collections += 1;
        let mut cycles = self.cost.collection_base + roots.len() as u64 * self.cost.per_root;
        let mut queue: VecDeque<Address> = VecDeque::new();

        for r in roots.iter_mut() {
            *r = self.forward_minor(*r, policy, &mut queue)?;
        }
        for slot in self.remset.drain_sorted() {
            cycles += self.cost.per_root;
            let old = Address(self.raw.read_u64(slot));
            let new = self.forward_minor(old, policy, &mut queue)?;
            self.raw.write_u64(slot, new.0);
        }
        while let Some(obj) = queue.pop_front() {
            self.scan_object_minor(obj, policy, &mut queue)?;
        }

        self.nursery.reset();
        self.resize_nursery();
        self.stats.gc_cycles += cycles;
        Ok(())
    }

    fn forward_minor(
        &mut self,
        obj: Address,
        policy: &dyn CoallocPolicy,
        queue: &mut VecDeque<Address>,
    ) -> Result<Address, GcError> {
        if obj.is_null() || !self.nursery.contains(obj) {
            return Ok(obj);
        }
        if ObjectModel::is_forwarded(&self.raw, obj) {
            return Ok(ObjectModel::forwarding(&self.raw, obj));
        }
        let size = ObjectModel::size(&self.raw, obj);

        // Co-allocation: promote parent and hottest child as one cell.
        if let TypeTag::Class(class) = ObjectModel::type_tag(&self.raw, obj) {
            if let Some(d) = policy.coalloc_child(class) {
                if matches!(self.mature, Mature::Ms(_)) {
                    let child = Address(self.raw.read_u64(obj.offset(d.field_offset)));
                    if !child.is_null()
                        && child != obj // self-reference: nothing to co-locate
                        && self.nursery.contains(child)
                        && !ObjectModel::is_forwarded(&self.raw, child)
                    {
                        let child_size = ObjectModel::size(&self.raw, child);
                        let total = size + d.gap_bytes + child_size;
                        if total <= LOS_THRESHOLD_BYTES {
                            return self.promote_pair(
                                obj,
                                size,
                                child,
                                child_size,
                                d.gap_bytes,
                                queue,
                            );
                        }
                    }
                }
            }
        }

        let to = self.mature_alloc(size).ok_or(GcError::OutOfMemory)?;
        self.raw.copy(obj, to, size);
        ObjectModel::forward_to(&mut self.raw, obj, to);
        self.stats.objects_promoted += 1;
        self.stats.bytes_promoted += size;
        self.stats.gc_cycles += self.cost.per_object + size * self.cost.per_copied_byte;
        queue.push_back(to);
        Ok(to)
    }

    fn promote_pair(
        &mut self,
        parent: Address,
        parent_size: u64,
        child: Address,
        child_size: u64,
        gap: u64,
        queue: &mut VecDeque<Address>,
    ) -> Result<Address, GcError> {
        let total = parent_size + gap + child_size;
        let cell = match &mut self.mature {
            Mature::Ms(ms) => ms.alloc(total).ok_or(GcError::OutOfMemory)?,
            Mature::Copy(_) => unreachable!("co-allocation is GenMS-only"),
        };
        let child_to = cell.offset(parent_size + gap);
        self.raw.copy(parent, cell, parent_size);
        self.raw.copy(child, child_to, child_size);
        if gap > 0 {
            self.raw.zero(cell.offset(parent_size), gap);
        }
        ObjectModel::forward_to(&mut self.raw, parent, cell);
        ObjectModel::forward_to(&mut self.raw, child, child_to);
        ObjectModel::set_flags(&mut self.raw, cell, flags::COALLOC);
        ObjectModel::set_flags(&mut self.raw, child_to, flags::COALLOC);
        self.coalloc_children.insert(cell.0, child_to);
        self.stats.objects_promoted += 2;
        self.stats.bytes_promoted += parent_size + child_size;
        self.stats.objects_coallocated += 1;
        self.stats.bytes_coallocated += parent_size + child_size;
        self.stats.gc_cycles += 2 * self.cost.per_object + total * self.cost.per_copied_byte;
        queue.push_back(cell);
        queue.push_back(child_to);
        Ok(cell)
    }

    fn mature_alloc(&mut self, size: u64) -> Option<Address> {
        match &mut self.mature {
            Mature::Ms(ms) => ms.alloc(size),
            Mature::Copy(c) => c.alloc(size.div_ceil(8) * 8),
        }
    }

    fn scan_object_minor(
        &mut self,
        obj: Address,
        policy: &dyn CoallocPolicy,
        queue: &mut VecDeque<Address>,
    ) -> Result<(), GcError> {
        let slots = self.ref_slots(obj);
        for i in 0..slots.len {
            let slot = self.ref_slot(slots, i);
            let old = Address(self.raw.read_u64(slot));
            let new = self.forward_minor(old, policy, queue)?;
            if new != old {
                self.raw.write_u64(slot, new.0);
            }
        }
        Ok(())
    }

    /// The reference slots of `obj`, to walk with [`Heap::ref_slot`].
    fn ref_slots(&self, obj: Address) -> RefSlots {
        let (class, len) = match ObjectModel::type_tag(&self.raw, obj) {
            TypeTag::Class(c) => (Some(c), self.classes.layout(c).ref_offsets.len() as u64),
            TypeTag::Array(ElemKind::Ref) => (None, ObjectModel::array_len(&self.raw, obj)),
            TypeTag::Array(_) => (None, 0),
        };
        RefSlots { obj, class, len }
    }

    /// Address of reference slot `i` of `slots` (`i < slots.len`).
    fn ref_slot(&self, slots: RefSlots, i: u64) -> Address {
        match slots.class {
            Some(c) => slots
                .obj
                .offset(self.classes.layout(c).ref_offsets[i as usize]),
            None => ObjectModel::array_data(slots.obj).offset(i * 8),
        }
    }

    fn resize_nursery(&mut self) {
        let free = self.mature_free_bytes();
        // Appel-style: the nursery may not outgrow what the mature space
        // could absorb (with slack for size-class rounding).
        self.nursery.set_capacity((free / 2).max(16 * 1024));
    }

    // ----- major collection ---------------------------------------------

    /// Full-heap collection. Marks (or copies) the mature space and LOS,
    /// sweeps garbage, then runs a minor collection to empty the nursery.
    /// Updates `roots` in place.
    ///
    /// # Errors
    ///
    /// [`GcError::OutOfMemory`] when live data exceeds the heap.
    pub fn collect_major(
        &mut self,
        roots: &mut [Address],
        policy: &dyn CoallocPolicy,
    ) -> Result<(), GcError> {
        self.stats.major_collections += 1;
        match self.mature {
            Mature::Ms(_) => self.major_mark_sweep(roots)?,
            Mature::Copy(_) => self.major_semispace(roots)?,
        }
        // With the mature space compacted/swept, empty the nursery.
        self.collect_minor(roots, policy)
    }

    fn major_mark_sweep(&mut self, roots: &mut [Address]) -> Result<(), GcError> {
        let mut cycles = self.cost.collection_base + roots.len() as u64 * self.cost.per_root;
        // The remembered set may hold slots of objects this collection is
        // about to sweep; it is rebuilt from scratch while marking.
        self.remset.clear();
        // Mark phase: traverse everything (nursery objects in place).
        let mut stack: Vec<Address> = roots.iter().copied().filter(|a| !a.is_null()).collect();
        let mut marked = 0u64;
        while let Some(obj) = stack.pop() {
            if ObjectModel::is_marked(&self.raw, obj) {
                continue;
            }
            ObjectModel::set_flags(&mut self.raw, obj, flags::MARK);
            marked += 1;
            let obj_in_nursery = self.nursery.contains(obj);
            let slots = self.ref_slots(obj);
            for i in 0..slots.len {
                let slot = self.ref_slot(slots, i);
                let child = Address(self.raw.read_u64(slot));
                if child.is_null() {
                    continue;
                }
                if !obj_in_nursery && self.nursery.contains(child) {
                    self.remset.record(slot);
                }
                if !ObjectModel::is_marked(&self.raw, child) {
                    stack.push(child);
                }
            }
        }
        cycles += marked * self.cost.per_marked_object;

        // Sweep the free-list space at cell granularity. A cell holding a
        // co-allocated pair stays live while either occupant is marked.
        let cells = match &self.mature {
            Mature::Ms(ms) => ms.allocated_cells(),
            Mature::Copy(_) => unreachable!(),
        };
        cycles += cells.len() as u64 * self.cost.per_swept_cell;
        for (cell, _bytes) in cells {
            let parent_live = ObjectModel::is_marked(&self.raw, cell);
            let child = self.coalloc_children.get(&cell.0).copied();
            let child_live = child.is_some_and(|c| ObjectModel::is_marked(&self.raw, c));
            if parent_live || child_live {
                ObjectModel::clear_flags(&mut self.raw, cell, flags::MARK);
                if let Some(c) = child {
                    ObjectModel::clear_flags(&mut self.raw, c, flags::MARK);
                }
            } else {
                self.coalloc_children.remove(&cell.0);
                match &mut self.mature {
                    Mature::Ms(ms) => ms.free(cell),
                    Mature::Copy(_) => unreachable!(),
                }
            }
        }

        if let Mature::Ms(ms) = &mut self.mature {
            ms.reclaim_empty_blocks();
        }
        self.sweep_los();
        self.clear_nursery_marks();
        self.stats.gc_cycles += cycles;
        Ok(())
    }

    fn major_semispace(&mut self, roots: &mut [Address]) -> Result<(), GcError> {
        let mut cycles = self.cost.collection_base + roots.len() as u64 * self.cost.per_root;
        let mut to = match &self.mature {
            Mature::Copy(c) => c.begin_copy(),
            Mature::Ms(_) => unreachable!(),
        };
        let mut queue: VecDeque<Address> = VecDeque::new();

        // Forward a reference during the major copy: from-space objects are
        // copied; nursery and LOS objects are marked in place and scanned.
        fn forward_major(
            heap: &mut Heap,
            obj: Address,
            to: &mut crate::semispace::ToSpaceCursor,
            queue: &mut VecDeque<Address>,
        ) -> Result<Address, GcError> {
            if obj.is_null() {
                return Ok(obj);
            }
            let in_active = match &heap.mature {
                Mature::Copy(c) => c.in_active(obj),
                Mature::Ms(_) => unreachable!(),
            };
            if in_active {
                if ObjectModel::is_forwarded(&heap.raw, obj) {
                    return Ok(ObjectModel::forwarding(&heap.raw, obj));
                }
                let size = ObjectModel::size(&heap.raw, obj);
                let size_aligned = size.div_ceil(8) * 8;
                let new = to.alloc(size_aligned).ok_or(GcError::OutOfMemory)?;
                heap.raw.copy(obj, new, size);
                ObjectModel::forward_to(&mut heap.raw, obj, new);
                heap.stats.gc_cycles += heap.cost.per_object + size * heap.cost.per_copied_byte;
                queue.push_back(new);
                Ok(new)
            } else {
                // Nursery or LOS: non-moving during the major phase, but
                // must be scanned once so their slots into from-space are
                // updated.
                if !ObjectModel::is_marked(&heap.raw, obj) {
                    ObjectModel::set_flags(&mut heap.raw, obj, flags::MARK);
                    queue.push_back(obj);
                }
                Ok(obj)
            }
        }

        // Remembered-set slot addresses refer to from-space objects and
        // are about to become stale; rebuild the set while scanning.
        self.remset.clear();
        for r in roots.iter_mut() {
            *r = forward_major(self, *r, &mut to, &mut queue)?;
        }
        while let Some(obj) = queue.pop_front() {
            let obj_in_nursery = self.nursery.contains(obj);
            let slots = self.ref_slots(obj);
            for i in 0..slots.len {
                let slot = self.ref_slot(slots, i);
                let old = Address(self.raw.read_u64(slot));
                let new = forward_major(self, old, &mut to, &mut queue)?;
                if new != old {
                    self.raw.write_u64(slot, new.0);
                }
                if !obj_in_nursery && self.nursery.contains(new) {
                    self.remset.record(slot);
                }
            }
        }
        match &mut self.mature {
            Mature::Copy(c) => c.finish_copy(&to),
            Mature::Ms(_) => unreachable!(),
        }
        self.sweep_los();
        self.clear_nursery_marks();
        cycles += to.used() * self.cost.per_copied_byte;
        self.stats.gc_cycles += cycles;
        Ok(())
    }

    fn sweep_los(&mut self) {
        for obj in self.los.allocated_objects() {
            if ObjectModel::is_marked(&self.raw, obj) {
                ObjectModel::clear_flags(&mut self.raw, obj, flags::MARK);
            } else {
                self.los.free(obj);
            }
        }
    }

    /// Walk the nursery linearly (objects are contiguous) clearing marks
    /// left by a major collection's in-place marking.
    fn clear_nursery_marks(&mut self) {
        let mut p = self.nursery.start();
        while p < self.nursery.cursor() {
            let size = ObjectModel::size(&self.raw, p);
            debug_assert!(size >= OBJECT_HEADER_BYTES && size.is_multiple_of(8));
            ObjectModel::clear_flags(&mut self.raw, p, flags::MARK);
            p = p.offset(size);
        }
    }

    // ----- verification --------------------------------------------------

    /// Debug heap walker: verifies every object reachable from `roots` has
    /// a valid header and in-bounds references. Returns the live object
    /// count.
    ///
    /// # Errors
    ///
    /// Returns a description of the first corruption found.
    pub fn verify(&self, roots: &[Address]) -> Result<u64, String> {
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<Address> = roots.iter().copied().filter(|a| !a.is_null()).collect();
        while let Some(obj) = stack.pop() {
            if !seen.insert(obj.0) {
                continue;
            }
            if !self.raw.contains(obj) {
                return Err(format!("reference {obj} outside the heap"));
            }
            let size = ObjectModel::size(&self.raw, obj);
            if size < OBJECT_HEADER_BYTES || !self.raw.contains(obj.offset(size - 1)) {
                return Err(format!("object {obj} has corrupt size {size}"));
            }
            match ObjectModel::type_tag(&self.raw, obj) {
                TypeTag::Class(c) => {
                    if c.0 as usize >= self.classes.len() {
                        return Err(format!("object {obj} has invalid class {c}"));
                    }
                    if size != self.classes.layout(c).size {
                        return Err(format!("object {obj} size mismatch for {c}"));
                    }
                }
                TypeTag::Array(k) => {
                    let len = ObjectModel::array_len(&self.raw, obj);
                    if size != ObjectModel::array_size(k, len) {
                        return Err(format!("array {obj} size/len mismatch"));
                    }
                }
            }
            let slots = self.ref_slots(obj);
            for i in 0..slots.len {
                let child = Address(self.raw.read_u64(self.ref_slot(slots, i)));
                if !child.is_null() {
                    stack.push(child);
                }
            }
        }
        Ok(seen.len() as u64)
    }

    /// Start address of the mature region (diagnostics).
    #[must_use]
    pub fn mature_start(&self) -> Address {
        self.mature_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoCoalloc, StaticPolicy};
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    /// Program with String { value: ref } and Node { next: ref, v: int }.
    fn program() -> (Program, ClassId, ClassId) {
        let mut pb = ProgramBuilder::new();
        let string = pb.add_class("String", &[("value", FieldType::Ref)]);
        let node = pb.add_class("Node", &[("next", FieldType::Ref), ("v", FieldType::Int)]);
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), string, node)
    }

    fn heap() -> (Heap, ClassId, ClassId) {
        let (p, s, n) = program();
        (Heap::new(&p, HeapConfig::small()), s, n)
    }

    #[test]
    fn alloc_and_field_round_trip() {
        let (mut h, _s, node) = heap();
        let a = h.alloc_object(node).unwrap();
        let b = h.alloc_object(node).unwrap();
        h.set_field(a, 16, b.0, true);
        h.set_field(a, 24, 42, false);
        assert_eq!(h.get_field(a, 16), b.0);
        assert_eq!(h.get_field(a, 24), 42);
        assert_eq!(h.stats().objects_allocated, 2);
    }

    #[test]
    fn arrays_round_trip_and_zero_init() {
        let (mut h, ..) = heap();
        let arr = h.alloc_array(ElemKind::I16, 10).unwrap();
        assert_eq!(h.array_len(arr), 10);
        for i in 0..10 {
            assert_eq!(h.array_get(arr, ElemKind::I16, i), 0);
        }
        h.array_set(arr, ElemKind::I16, 3, 0xbeef);
        assert_eq!(h.array_get(arr, ElemKind::I16, 3), 0xbeef);
    }

    #[test]
    fn large_objects_go_to_los() {
        let (mut h, ..) = heap();
        let arr = h.alloc_array(ElemKind::I64, 1024).unwrap(); // 8 KB
        assert!(!h.in_nursery(arr));
        assert_eq!(h.stats().large_objects, 1);
    }

    #[test]
    fn nursery_exhaustion_requests_minor_gc() {
        let (mut h, _s, node) = heap();
        let mut need = None;
        for _ in 0..10_000 {
            match h.alloc_object(node) {
                Ok(_) => {}
                Err(n) => {
                    need = Some(n);
                    break;
                }
            }
        }
        assert_eq!(need, Some(GcNeeded::Minor));
    }

    #[test]
    fn minor_gc_promotes_live_chain_and_updates_roots() {
        let (mut h, _s, node) = heap();
        // Build a 3-node chain; keep only the head as root.
        let a = h.alloc_object(node).unwrap();
        let b = h.alloc_object(node).unwrap();
        let c = h.alloc_object(node).unwrap();
        h.set_field(a, 16, b.0, true);
        h.set_field(b, 16, c.0, true);
        h.set_field(c, 24, 7, false);
        // Garbage:
        for _ in 0..100 {
            h.alloc_object(node).unwrap();
        }

        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let a2 = roots[0];
        assert_ne!(a2, a, "head moved to mature space");
        assert!(!h.in_nursery(a2));
        let b2 = Address(h.get_field(a2, 16));
        let c2 = Address(h.get_field(b2, 16));
        assert_eq!(h.get_field(c2, 24), 7, "chain survived with data intact");
        assert_eq!(h.stats().objects_promoted, 3, "garbage was not promoted");
        assert_eq!(h.verify(&roots).unwrap(), 3);
        assert_eq!(h.nursery_used(), 0);
    }

    #[test]
    fn cycles_are_promoted_once() {
        let (mut h, _s, node) = heap();
        let a = h.alloc_object(node).unwrap();
        let b = h.alloc_object(node).unwrap();
        h.set_field(a, 16, b.0, true);
        h.set_field(b, 16, a.0, true);
        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let a2 = roots[0];
        let b2 = Address(h.get_field(a2, 16));
        assert_eq!(Address(h.get_field(b2, 16)), a2, "cycle intact");
        assert_eq!(h.stats().objects_promoted, 2);
    }

    #[test]
    fn write_barrier_keeps_nursery_object_alive() {
        let (mut h, _s, node) = heap();
        // Promote `a` to the mature space.
        let a = h.alloc_object(node).unwrap();
        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let a = roots[0];
        // Store a nursery reference into the mature object. Without the
        // write barrier the next minor GC would collect `young`.
        let young = h.alloc_object(node).unwrap();
        h.set_field(young, 24, 99, false);
        h.set_field(a, 16, young.0, true);
        assert_eq!(h.remset_len(), 1);

        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let young2 = Address(h.get_field(roots[0], 16));
        assert!(!young2.is_null());
        assert_eq!(h.get_field(young2, 24), 99);
    }

    #[test]
    fn coallocation_places_child_adjacent() {
        let (p, string, _node) = program();
        let mut h = Heap::new(&p, HeapConfig::small());
        let s = h.alloc_object(string).unwrap();
        let v = h.alloc_array(ElemKind::I16, 16).unwrap();
        h.set_field(s, 16, v.0, true);

        let mut policy = StaticPolicy::new();
        policy.set(string, 16);
        let mut roots = vec![s];
        h.collect_minor(&mut roots, &policy).unwrap();
        let s2 = roots[0];
        let v2 = Address(h.get_field(s2, 16));
        assert_eq!(v2.0, s2.0 + 24, "child directly after the 24-byte parent");
        assert!(h.is_coallocated(s2));
        assert!(h.is_coallocated(v2));
        assert_eq!(h.stats().objects_coallocated, 1);
        assert_eq!(h.verify(&roots).unwrap(), 2);
    }

    #[test]
    fn coallocation_gap_separates_pair() {
        let (p, string, _node) = program();
        let mut h = Heap::new(&p, HeapConfig::small());
        let s = h.alloc_object(string).unwrap();
        let v = h.alloc_array(ElemKind::I16, 16).unwrap();
        h.set_field(s, 16, v.0, true);
        let mut policy = StaticPolicy::new();
        policy.set_with_gap(string, 16, 128);
        let mut roots = vec![s];
        h.collect_minor(&mut roots, &policy).unwrap();
        let s2 = roots[0];
        let v2 = Address(h.get_field(s2, 16));
        assert_eq!(v2.0, s2.0 + 24 + 128, "one cache line of padding");
    }

    #[test]
    fn without_policy_pair_lands_in_separate_size_classes() {
        let (p, string, _node) = program();
        let mut h = Heap::new(&p, HeapConfig::small());
        let s = h.alloc_object(string).unwrap();
        let v = h.alloc_array(ElemKind::I16, 100).unwrap(); // 216 bytes
        h.set_field(s, 16, v.0, true);
        let mut roots = vec![s];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let s2 = roots[0];
        let v2 = Address(h.get_field(s2, 16));
        assert!(
            v2.0.abs_diff(s2.0) >= BLOCK_BYTES,
            "different size classes → different blocks ({s2} vs {v2})"
        );
    }

    #[test]
    fn major_gc_reclaims_mature_garbage() {
        let (mut h, _s, node) = heap();
        // Promote 100 objects, keep none.
        for _ in 0..100 {
            h.alloc_object(node).unwrap();
        }
        let mut roots = vec![];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        assert_eq!(h.stats().objects_promoted, 0, "no roots → nothing promoted");

        // Promote live objects, then drop them and run a major GC.
        let a = h.alloc_object(node).unwrap();
        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let used_before = h.mature_used_bytes();
        assert!(used_before > 0);
        let mut no_roots: Vec<Address> = vec![];
        h.collect_major(&mut no_roots, &NoCoalloc).unwrap();
        assert_eq!(h.mature_used_bytes(), 0, "mature garbage swept");
    }

    #[test]
    fn major_gc_keeps_cell_with_live_coalloc_child() {
        let (p, string, _node) = program();
        let mut h = Heap::new(&p, HeapConfig::small());
        let s = h.alloc_object(string).unwrap();
        let v = h.alloc_array(ElemKind::I16, 16).unwrap();
        h.set_field(s, 16, v.0, true);
        let mut policy = StaticPolicy::new();
        policy.set(string, 16);
        let mut roots = vec![s];
        h.collect_minor(&mut roots, &policy).unwrap();
        let child = Address(h.get_field(roots[0], 16));

        // Drop the parent, keep only the child.
        let mut roots = vec![child];
        h.collect_major(&mut roots, &policy).unwrap();
        assert_eq!(roots[0], child, "GenMS major GC does not move objects");
        assert_eq!(h.array_len(child), 16);
        assert!(h.mature_used_bytes() > 0, "shared cell kept alive by child");

        // Now drop the child too.
        let mut roots: Vec<Address> = vec![];
        h.collect_major(&mut roots, &policy).unwrap();
        assert_eq!(h.mature_used_bytes(), 0);
    }

    #[test]
    fn gencopy_major_compacts() {
        let (p, _string, node) = program();
        let mut h = Heap::new(
            &p,
            HeapConfig::small().with_collector(CollectorKind::GenCopy),
        );
        // Promote one keeper plus 50 objects that will die before the
        // major collection.
        let mut roots = vec![h.alloc_object(node).unwrap()];
        for _ in 0..50 {
            roots.push(h.alloc_object(node).unwrap());
        }
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        let keep = roots[0];
        let before = h.mature_used_bytes();

        let mut roots = vec![keep];
        h.collect_major(&mut roots, &NoCoalloc).unwrap();
        assert!(h.mature_used_bytes() < before, "copy dropped the garbage");
        assert_ne!(roots[0], keep, "survivor moved to the other semispace");
        assert_eq!(h.verify(&roots).unwrap(), 1);
    }

    #[test]
    fn gencopy_preserves_linked_structures() {
        let (p, _string, node) = program();
        let mut h = Heap::new(
            &p,
            HeapConfig::small().with_collector(CollectorKind::GenCopy),
        );
        let a = h.alloc_object(node).unwrap();
        let b = h.alloc_object(node).unwrap();
        h.set_field(a, 16, b.0, true);
        h.set_field(b, 24, 1234, false);
        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        h.collect_major(&mut roots, &NoCoalloc).unwrap();
        let b2 = Address(h.get_field(roots[0], 16));
        assert_eq!(h.get_field(b2, 24), 1234);
    }

    #[test]
    fn los_objects_survive_major_when_referenced() {
        let (mut h, _s, node) = heap();
        let holder = h.alloc_object(node).unwrap();
        let big = h.alloc_array(ElemKind::I64, 1024).unwrap();
        h.set_field(holder, 16, big.0, true);
        let mut roots = vec![holder];
        h.collect_major(&mut roots, &NoCoalloc).unwrap();
        let big2 = Address(h.get_field(roots[0], 16));
        assert_eq!(big2, big, "LOS objects never move");
        assert_eq!(h.array_len(big2), 1024);

        let mut no_roots: Vec<Address> = vec![];
        h.collect_major(&mut no_roots, &NoCoalloc).unwrap();
        let replacement = h.alloc_array(ElemKind::I64, 1024).unwrap();
        assert_eq!(replacement, big, "LOS slot was reclaimed and reused");
    }

    #[test]
    fn minor_is_safe_reflects_mature_pressure() {
        let (h, ..) = heap();
        assert!(h.minor_is_safe() || h.mature_free_bytes() < 64 * BLOCK_BYTES);
    }

    #[test]
    fn gc_stats_track_collections_and_cycles() {
        let (mut h, _s, node) = heap();
        let a = h.alloc_object(node).unwrap();
        let mut roots = vec![a];
        h.collect_minor(&mut roots, &NoCoalloc).unwrap();
        h.collect_major(&mut roots, &NoCoalloc).unwrap();
        let s = h.stats();
        assert_eq!(s.minor_collections, 2, "major runs a trailing minor");
        assert_eq!(s.major_collections, 1);
        assert!(s.gc_cycles > 0);
    }
}

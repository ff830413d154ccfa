//! Out-of-core tile storage: fixed-size `f64` tiles behind a
//! [`TileStore`], so matrices larger than memory can flow through the
//! existing kernels panel-by-panel.
//!
//! The 3D algorithm's tile structure extends directly to matrices that
//! do not fit in RAM: the data plane becomes a keyed store of
//! `tile × tile` blocks, and the sequential communication-avoiding QR
//! schedule (Demmel et al.) walks them one column panel at a time. Three
//! pieces:
//!
//! * [`TileStore`] — get/put/pin/flush over fixed-size tiles keyed by
//!   `(block_row, block_col)`. Absent tiles read as zeros; `put` marks a
//!   tile dirty; pinned tiles are guaranteed resident until unpinned.
//! * [`MemStore`] — the always-resident reference implementation.
//! * [`SpillStore`] — bounds resident bytes (`QR3D_TILE_CACHE_BYTES`),
//!   evicts clean tiles LRU, writes dirty tiles through to a per-store
//!   temp file (plain `std::fs` seek-offset I/O) before they leave
//!   memory, and honors sequential [`TileStore::prefetch`] hints from
//!   the panel schedule. Tiles round-trip the file as raw `f64` bit
//!   patterns, so a spilled tile reads back **bitwise** what was
//!   written.
//! * [`TiledMatrix`] — adapts a store to the dense kernels: it
//!   materializes pinned tile ranges as contiguous [`Matrix`] panels, so
//!   `geqrt`/`gemm`/`trsm` run unmodified, and writes results back
//!   tile-by-tile. [`geqrt_out_of_core`] is the left-looking panel
//!   sweep built on it.
//!
//! The eviction byte cap is **best-effort**: pinned tiles never evict,
//! so a working set of pins larger than the cap is allowed to exceed it
//! (the alternative — refusing the pin — would deadlock every panel
//! schedule whose panel exceeds the cache). `SpillStore::resident_bytes`
//! plus the scratch arenas' `peak_bytes` watermark give callers the real
//! footprint to budget against.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::dense::Matrix;
use crate::gemm::{gemm, Trans};
use crate::qr::{apply_block_reflector, apply_block_reflector_ws, geqrt_ws};
use crate::scratch::{with_thread_arena, ScratchArena};

/// A tile's coordinates: `(block_row, block_col)` in units of tiles.
pub type TileKey = (usize, usize);

/// Default resident-byte bound of a [`SpillStore`] when
/// `QR3D_TILE_CACHE_BYTES` is unset: 64 MiB.
pub const TILE_CACHE_BYTES_DEFAULT: usize = 64 << 20;

/// Resolve the spill cache's resident-byte bound from an environment
/// lookup: `QR3D_TILE_CACHE_BYTES` (integer ≥ 1) or, unset,
/// [`TILE_CACHE_BYTES_DEFAULT`]. Read at store construction, not frozen
/// per process, so tests can build stores under different caps.
///
/// # Panics
/// If the variable is set to anything but an integer ≥ 1.
pub fn tile_cache_bytes_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> usize {
    match lookup("QR3D_TILE_CACHE_BYTES") {
        Some(raw) => parse_tile_cache_bytes(&raw)
            .unwrap_or_else(|| panic!("QR3D_TILE_CACHE_BYTES={raw:?}: expected an integer ≥ 1")),
        None => TILE_CACHE_BYTES_DEFAULT,
    }
}

/// Parse a `QR3D_TILE_CACHE_BYTES` value: an integer ≥ 1, blanks
/// around it ignored; `None` for anything else.
fn parse_tile_cache_bytes(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&b| b >= 1)
}

/// [`tile_cache_bytes_from_lookup`] over the process environment.
pub fn tile_cache_bytes_from_env() -> usize {
    tile_cache_bytes_from_lookup(|k| std::env::var(k).ok())
}

/// Fixed-size `f64` tile storage keyed by `(block_row, block_col)`.
///
/// Contract shared by every implementation:
/// * a tile never written reads as zeros;
/// * `get` after `put` returns **bitwise** what was written, however
///   many evictions/flushes happened in between;
/// * a pinned tile stays resident (never evicted) until unpinned;
/// * dirty tiles are never dropped — eviction persists them first.
pub trait TileStore {
    /// Words (`f64`s) per tile — every `get`/`put` buffer is exactly
    /// this long.
    fn tile_len(&self) -> usize;
    /// Copy tile `key` into `out` (`out.len() == tile_len()`); zeros if
    /// the tile was never written.
    fn get(&mut self, key: TileKey, out: &mut [f64]);
    /// Overwrite tile `key` from `data` (`data.len() == tile_len()`),
    /// marking it dirty.
    fn put(&mut self, key: TileKey, data: &[f64]);
    /// Make `key` resident and hold it there; pins nest.
    fn pin(&mut self, key: TileKey);
    /// Release one pin on `key`. Ignored for unpinned tiles.
    fn unpin(&mut self, key: TileKey);
    /// Persist every dirty tile to backing storage (no-op where memory
    /// *is* the backing storage).
    fn flush(&mut self);
    /// Hint that `keys` will be accessed soon, in order. Best-effort:
    /// an implementation may fault them in while it has spare capacity,
    /// but never evicts to make room for a hint.
    fn prefetch(&mut self, keys: &[TileKey]) {
        let _ = keys;
    }
    /// Bytes currently resident in memory.
    fn resident_bytes(&self) -> usize;
}

/// Always-resident [`TileStore`]: a `HashMap` of tiles, the reference
/// implementation every bounded store must match bitwise.
#[derive(Debug)]
pub struct MemStore {
    tile_len: usize,
    tiles: HashMap<TileKey, Vec<f64>>,
    pins: HashMap<TileKey, usize>,
}

impl MemStore {
    /// An empty store of `tile_len`-word tiles.
    pub fn new(tile_len: usize) -> Self {
        assert!(tile_len >= 1, "MemStore: tile_len must be ≥ 1");
        MemStore {
            tile_len,
            tiles: HashMap::new(),
            pins: HashMap::new(),
        }
    }

    /// Pins currently held on `key` (for invariant tests).
    pub fn pin_count(&self, key: TileKey) -> usize {
        self.pins.get(&key).copied().unwrap_or(0)
    }
}

impl TileStore for MemStore {
    fn tile_len(&self) -> usize {
        self.tile_len
    }

    fn get(&mut self, key: TileKey, out: &mut [f64]) {
        assert_eq!(out.len(), self.tile_len, "MemStore::get: buffer length");
        match self.tiles.get(&key) {
            Some(t) => out.copy_from_slice(t),
            None => out.fill(0.0),
        }
    }

    fn put(&mut self, key: TileKey, data: &[f64]) {
        assert_eq!(data.len(), self.tile_len, "MemStore::put: buffer length");
        self.tiles.insert(key, data.to_vec());
    }

    fn pin(&mut self, key: TileKey) {
        *self.pins.entry(key).or_insert(0) += 1;
    }

    fn unpin(&mut self, key: TileKey) {
        if let Some(p) = self.pins.get_mut(&key) {
            *p -= 1;
            if *p == 0 {
                self.pins.remove(&key);
            }
        }
    }

    fn flush(&mut self) {}

    fn resident_bytes(&self) -> usize {
        self.tiles.len() * self.tile_len * size_of::<f64>()
    }
}

/// Counters a [`SpillStore`] keeps about its cache behavior.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// `get`/`put`/`pin` calls served from resident tiles.
    pub hits: u64,
    /// Calls that had to fault a tile in from the spill file.
    pub misses: u64,
    /// Tiles evicted to stay under the byte cap.
    pub evictions: u64,
    /// Dirty tiles written through to the spill file.
    pub spill_writes: u64,
    /// Tiles read back from the spill file.
    pub spill_reads: u64,
    /// Tiles faulted in by [`TileStore::prefetch`] hints.
    pub prefetched: u64,
}

#[derive(Debug)]
struct ResidentTile {
    data: Vec<f64>,
    dirty: bool,
    pins: usize,
    last_use: u64,
    /// Slot in the spill file holding this tile's last persisted bytes,
    /// if it was ever spilled or flushed.
    slot: Option<u64>,
}

static SPILL_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// Bounded-residency [`TileStore`]: keeps at most `cap_bytes` of tiles
/// in memory (best-effort — see the module docs on pins), evicting
/// clean tiles LRU and writing dirty tiles through to a per-store temp
/// file first. See the trait docs for the bitwise read-back contract.
#[derive(Debug)]
pub struct SpillStore {
    tile_len: usize,
    cap_bytes: usize,
    resident: HashMap<TileKey, ResidentTile>,
    resident_bytes: usize,
    /// Non-resident tiles: key → file slot holding their bytes.
    spilled: HashMap<TileKey, u64>,
    free_slots: Vec<u64>,
    next_slot: u64,
    file: Option<File>,
    path: Option<PathBuf>,
    clock: u64,
    stats: SpillStats,
}

impl SpillStore {
    /// A store of `tile_len`-word tiles whose resident bound comes from
    /// `QR3D_TILE_CACHE_BYTES` (read now, at construction).
    pub fn new(tile_len: usize) -> Self {
        SpillStore::with_capacity(tile_len, tile_cache_bytes_from_env())
    }

    /// A store of `tile_len`-word tiles keeping at most `cap_bytes`
    /// resident. A cap smaller than one tile degenerates to "evict
    /// everything unpinned after use" — still correct, maximally slow.
    pub fn with_capacity(tile_len: usize, cap_bytes: usize) -> Self {
        assert!(tile_len >= 1, "SpillStore: tile_len must be ≥ 1");
        assert!(cap_bytes >= 1, "SpillStore: cap_bytes must be ≥ 1");
        SpillStore {
            tile_len,
            cap_bytes,
            resident: HashMap::new(),
            resident_bytes: 0,
            spilled: HashMap::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            file: None,
            path: None,
            clock: 0,
            stats: SpillStats::default(),
        }
    }

    /// The resident-byte bound this store was built with.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Cache-behavior counters accumulated so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Whether `key` is currently resident (for invariant tests).
    pub fn is_resident(&self, key: TileKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Pins currently held on `key` (for invariant tests).
    pub fn pin_count(&self, key: TileKey) -> usize {
        self.resident.get(&key).map_or(0, |t| t.pins)
    }

    /// Evict every unpinned tile now — dirty ones spill first — freeing
    /// the cache between schedule phases (and giving prefetch hints
    /// room to work with).
    pub fn evict_unpinned(&mut self) {
        while self.evict_one() {}
    }

    fn tile_bytes(&self) -> usize {
        self.tile_len * size_of::<f64>()
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The spill file, created on first use under the OS temp dir.
    fn file(&mut self) -> &mut File {
        if self.file.is_none() {
            let id = SPILL_STORE_ID.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "qr3d-spill-{}-{}.tiles",
                std::process::id(),
                id
            ));
            let file = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .unwrap_or_else(|e| panic!("SpillStore: cannot open {}: {e}", path.display()));
            self.file = Some(file);
            self.path = Some(path);
        }
        self.file.as_mut().expect("spill file just ensured")
    }

    fn alloc_slot(&mut self) -> u64 {
        self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        })
    }

    /// Persist `data` at `slot`, as raw little-endian `f64` bit patterns
    /// (the round-trip is bit-exact, including NaN payloads and −0.0).
    fn write_slot(&mut self, slot: u64, data: &[f64]) {
        let bytes = self.tile_bytes();
        let mut buf = vec![0u8; bytes];
        for (chunk, &x) in buf.chunks_exact_mut(size_of::<f64>()).zip(data) {
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let file = self.file();
        file.seek(SeekFrom::Start(slot * bytes as u64))
            .expect("SpillStore: seek for write");
        file.write_all(&buf).expect("SpillStore: spill write");
        self.stats.spill_writes += 1;
    }

    fn read_slot(&mut self, slot: u64) -> Vec<f64> {
        let bytes = self.tile_bytes();
        let mut buf = vec![0u8; bytes];
        let file = self.file();
        file.seek(SeekFrom::Start(slot * bytes as u64))
            .expect("SpillStore: seek for read");
        file.read_exact(&mut buf).expect("SpillStore: spill read");
        let data = buf
            .chunks_exact(size_of::<f64>())
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        self.stats.spill_reads += 1;
        data
    }

    /// Evict the single LRU unpinned tile (dirty tiles spill to the
    /// file first). `false` if everything resident is pinned.
    fn evict_one(&mut self) -> bool {
        let victim = self
            .resident
            .iter()
            .filter(|(_, t)| t.pins == 0)
            .min_by_key(|(_, t)| t.last_use)
            .map(|(&k, _)| k);
        let Some(key) = victim else {
            return false;
        };
        let mut tile = self.resident.remove(&key).expect("victim is resident");
        self.resident_bytes -= self.tile_bytes();
        self.stats.evictions += 1;
        if tile.dirty {
            let slot = tile.slot.unwrap_or_else(|| self.alloc_slot());
            self.write_slot(slot, &tile.data);
            tile.slot = Some(slot);
        }
        match tile.slot {
            // The file holds these bits (just written, or still clean).
            Some(slot) => {
                self.spilled.insert(key, slot);
            }
            // Clean and never persisted: an all-zero pin-created tile;
            // dropping it preserves "absent reads zeros".
            None => debug_assert!(tile.data.iter().all(|&x| x == 0.0)),
        }
        true
    }

    /// Evict unpinned LRU tiles until one more tile fits under the cap
    /// (or nothing evictable remains — pinned tiles never leave).
    fn make_room(&mut self) {
        while self.resident_bytes + self.tile_bytes() > self.cap_bytes {
            if !self.evict_one() {
                return; // everything resident is pinned: overflow, never deadlock
            }
        }
    }

    /// Make `key` resident (faulting it in from the spill file, or as a
    /// fresh zero tile) and return whether it already existed anywhere.
    fn fault_in(&mut self, key: TileKey) {
        if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            let t = self.tick();
            self.resident
                .get_mut(&key)
                .expect("resident checked")
                .last_use = t;
            return;
        }
        self.stats.misses += 1;
        self.make_room();
        let (data, slot) = match self.spilled.remove(&key) {
            Some(slot) => (self.read_slot(slot), Some(slot)),
            None => (vec![0.0; self.tile_len], None),
        };
        let last_use = self.tick();
        self.resident.insert(
            key,
            ResidentTile {
                data,
                dirty: false,
                pins: 0,
                last_use,
                slot,
            },
        );
        self.resident_bytes += self.tile_bytes();
    }
}

impl TileStore for SpillStore {
    fn tile_len(&self) -> usize {
        self.tile_len
    }

    fn get(&mut self, key: TileKey, out: &mut [f64]) {
        assert_eq!(out.len(), self.tile_len, "SpillStore::get: buffer length");
        if !self.resident.contains_key(&key) && !self.spilled.contains_key(&key) {
            // Never written: zeros, without spending cache on it.
            self.stats.hits += 1;
            out.fill(0.0);
            return;
        }
        self.fault_in(key);
        out.copy_from_slice(&self.resident[&key].data);
    }

    fn put(&mut self, key: TileKey, data: &[f64]) {
        assert_eq!(data.len(), self.tile_len, "SpillStore::put: buffer length");
        if let Some(t) = self.resident.get_mut(&key) {
            self.stats.hits += 1;
            t.data.copy_from_slice(data);
            t.dirty = true;
            let tick = self.tick();
            self.resident.get_mut(&key).expect("resident").last_use = tick;
            return;
        }
        self.stats.misses += 1;
        self.make_room();
        // A previously spilled tile keeps its slot; the overwrite makes
        // the file bytes stale, which `dirty` records.
        let slot = self.spilled.remove(&key);
        let last_use = self.tick();
        self.resident.insert(
            key,
            ResidentTile {
                data: data.to_vec(),
                dirty: true,
                pins: 0,
                last_use,
                slot,
            },
        );
        self.resident_bytes += self.tile_bytes();
    }

    fn pin(&mut self, key: TileKey) {
        self.fault_in(key);
        self.resident.get_mut(&key).expect("just faulted in").pins += 1;
    }

    fn unpin(&mut self, key: TileKey) {
        if let Some(t) = self.resident.get_mut(&key) {
            if t.pins > 0 {
                t.pins -= 1;
            }
        }
        // A pinned working set may have overflowed the cap (see the
        // module docs); releasing pins is the moment to trim back.
        while self.resident_bytes > self.cap_bytes {
            if !self.evict_one() {
                break;
            }
        }
    }

    fn flush(&mut self) {
        let dirty: Vec<TileKey> = self
            .resident
            .iter()
            .filter(|(_, t)| t.dirty)
            .map(|(&k, _)| k)
            .collect();
        for key in dirty {
            let slot = self.resident[&key]
                .slot
                .unwrap_or_else(|| self.alloc_slot());
            let data = std::mem::take(&mut self.resident.get_mut(&key).expect("dirty").data);
            self.write_slot(slot, &data);
            let t = self.resident.get_mut(&key).expect("dirty");
            t.data = data;
            t.slot = Some(slot);
            t.dirty = false;
        }
        if let Some(f) = self.file.as_mut() {
            f.flush().expect("SpillStore: flush");
        }
    }

    fn prefetch(&mut self, keys: &[TileKey]) {
        // Fault hinted tiles in while there is spare capacity; never
        // evict for a hint (the demand stream owns the cache).
        let tile_bytes = self.tile_bytes();
        for &key in keys {
            if self.resident.contains_key(&key) {
                continue;
            }
            if !self.spilled.contains_key(&key) {
                continue; // absent tiles read zeros without residency
            }
            if self.resident_bytes + tile_bytes > self.cap_bytes {
                break; // hints stop at the cap, in schedule order
            }
            self.fault_in(key);
            // fault_in counted a demand miss; reclassify as prefetch.
            self.stats.misses -= 1;
            self.stats.prefetched += 1;
        }
    }

    fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        self.file = None; // close before unlink, for portability
        if let Some(path) = self.path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A dense `rows × cols` matrix stored as `tile × tile` blocks in a
/// [`TileStore`] (edge tiles zero-padded). Materializes arbitrary
/// ranges as contiguous [`Matrix`] panels — pinning the covered tiles
/// for the duration — so the dense kernels run unmodified on them.
#[derive(Debug)]
pub struct TiledMatrix<S: TileStore> {
    store: S,
    rows: usize,
    cols: usize,
    tile: usize,
}

impl<S: TileStore> TiledMatrix<S> {
    /// An all-zero `rows × cols` tiled matrix over `store`, whose
    /// `tile_len` must be `tile × tile`.
    pub fn new(store: S, rows: usize, cols: usize, tile: usize) -> Self {
        assert!(tile >= 1, "TiledMatrix: tile must be ≥ 1");
        assert_eq!(
            store.tile_len(),
            tile * tile,
            "TiledMatrix: store tile_len must be tile²"
        );
        assert!(rows >= 1 && cols >= 1, "TiledMatrix: empty shape");
        TiledMatrix {
            store,
            rows,
            cols,
            tile,
        }
    }

    /// Tile `a` into `store` (writing every covered tile).
    pub fn from_matrix(store: S, a: &Matrix, tile: usize) -> Self {
        let mut tm = TiledMatrix::new(store, a.rows(), a.cols(), tile);
        tm.write_block(0, 0, a);
        tm
    }

    /// Row count of the dense view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the dense view.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Tile edge length (tiles hold `tile × tile` words).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The underlying store (stats, residency queries).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The underlying store, mutably (flush, explicit pins).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consume the view, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Tile keys covering rows `r0..r1` × cols `c0..c1`, row-major.
    fn covering(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Vec<TileKey> {
        let (br0, br1) = (r0 / self.tile, (r1 - 1) / self.tile);
        let (bc0, bc1) = (c0 / self.tile, (c1 - 1) / self.tile);
        let mut keys = Vec::with_capacity((br1 - br0 + 1) * (bc1 - bc0 + 1));
        for br in br0..=br1 {
            for bc in bc0..=bc1 {
                keys.push((br, bc));
            }
        }
        keys
    }

    /// Materialize rows `r0..r1` × cols `c0..c1` as a dense matrix. The
    /// covered tiles are pinned while read and unpinned before return.
    pub fn read_block(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 < r1 && r1 <= self.rows, "read_block: row range");
        assert!(c0 < c1 && c1 <= self.cols, "read_block: col range");
        let keys = self.covering(r0, r1, c0, c1);
        for &k in &keys {
            self.store.pin(k);
        }
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        let mut buf = vec![0.0; self.store.tile_len()];
        for &(br, bc) in &keys {
            self.store.get((br, bc), &mut buf);
            let (tr0, tc0) = (br * self.tile, bc * self.tile);
            let ir0 = tr0.max(r0);
            let ir1 = (tr0 + self.tile).min(r1);
            let ic0 = tc0.max(c0);
            let ic1 = (tc0 + self.tile).min(c1);
            for i in ir0..ir1 {
                let src = &buf[(i - tr0) * self.tile + (ic0 - tc0)..][..ic1 - ic0];
                out.row_mut(i - r0)[ic0 - c0..ic1 - c0].copy_from_slice(src);
            }
        }
        for &k in &keys {
            self.store.unpin(k);
        }
        out
    }

    /// Write `block` at `(r0, c0)`, read-modify-writing partially
    /// covered tiles. The covered tiles are pinned for the duration.
    pub fn write_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        let (r1, c1) = (r0 + block.rows(), c0 + block.cols());
        assert!(r1 <= self.rows && c1 <= self.cols, "write_block: range");
        let keys = self.covering(r0, r1, c0, c1);
        for &k in &keys {
            self.store.pin(k);
        }
        let mut buf = vec![0.0; self.store.tile_len()];
        for &(br, bc) in &keys {
            self.store.get((br, bc), &mut buf);
            let (tr0, tc0) = (br * self.tile, bc * self.tile);
            let ir0 = tr0.max(r0);
            let ir1 = (tr0 + self.tile).min(r1);
            let ic0 = tc0.max(c0);
            let ic1 = (tc0 + self.tile).min(c1);
            for i in ir0..ir1 {
                let dst = &mut buf[(i - tr0) * self.tile + (ic0 - tc0)..][..ic1 - ic0];
                dst.copy_from_slice(&block.row(i - r0)[ic0 - c0..ic1 - c0]);
            }
            self.store.put((br, bc), &buf);
        }
        for &k in &keys {
            self.store.unpin(k);
        }
    }

    /// The whole dense matrix (for tests and final results).
    pub fn to_matrix(&mut self) -> Matrix {
        self.read_block(0, self.rows, 0, self.cols)
    }

    /// Hint the store that cols `c0..c1` (all rows) are next in the
    /// panel schedule.
    pub fn prefetch_cols(&mut self, c0: usize, c1: usize) {
        if c0 >= c1 || c0 >= self.cols {
            return;
        }
        let keys = self.covering(0, self.rows, c0, c1.min(self.cols));
        self.store.prefetch(&keys);
    }
}

/// The factors of an out-of-core left-looking panel QR: per-panel
/// compact-WY blocks `(Vᵢ, Tᵢ)` (panel `i` acting on rows
/// `i·w..m`) and the assembled `n × n` upper-triangular `R`.
#[derive(Debug, Clone)]
pub struct OocQr {
    /// Per-panel reflector blocks, in factorization order.
    pub panels: Vec<(Matrix, Matrix)>,
    /// The assembled upper-triangular factor.
    pub r: Matrix,
    /// Panel width `w` (the tile edge of the swept matrix).
    pub panel_width: usize,
}

impl OocQr {
    /// Apply `Qᵀ` to an `m × k` matrix (panels in factorization order).
    pub fn qt_times(&self, c: &Matrix) -> Matrix {
        let mut out = c.clone();
        for (i, (v, t)) in self.panels.iter().enumerate() {
            let i0 = i * self.panel_width;
            let mut tail = out.submatrix(i0, out.rows(), 0, out.cols());
            apply_block_reflector(v, t, &mut tail, true);
            out.set_submatrix(i0, 0, &tail);
        }
        out
    }

    /// Apply `Q` to an `m × k` matrix (panels in reverse order).
    pub fn q_times(&self, c: &Matrix) -> Matrix {
        let mut out = c.clone();
        for (i, (v, t)) in self.panels.iter().enumerate().rev() {
            let i0 = i * self.panel_width;
            let mut tail = out.submatrix(i0, out.rows(), 0, out.cols());
            apply_block_reflector(v, t, &mut tail, false);
            out.set_submatrix(i0, 0, &tail);
        }
        out
    }

    /// The explicit thin `Q` (`m × n`, orthonormal columns).
    pub fn thin_q(&self, m: usize) -> Matrix {
        let n = self.r.rows();
        let mut e = Matrix::zeros(m, n);
        for j in 0..n {
            e[(j, j)] = 1.0;
        }
        self.q_times(&e)
    }

    /// `‖A − Q·R‖_F / ‖A‖_F` — deterministic given the factors, so two
    /// sweeps with bitwise-equal factors report bitwise-equal residuals.
    pub fn residual(&self, a: &Matrix) -> f64 {
        let q = self.thin_q(a.rows());
        let mut qr = Matrix::zeros(a.rows(), a.cols());
        gemm(Trans::No, Trans::No, 1.0, &q, &self.r, 0.0, &mut qr);
        qr.sub_assign(a);
        qr.frobenius_norm() / a.frobenius_norm()
    }
}

/// Left-looking out-of-core QR panel sweep over a tiled `m × n` matrix
/// (`m ≥ n`), panel width = the tile edge: for each column panel, fault
/// it in (prefetching the next panel in schedule order), apply the
/// previous panels' reflectors (`Qᵀ` updates — the *left-looking*
/// order of the sequential CAQR schedule, which writes each panel once
/// instead of re-updating the trailing matrix), factor its subdiagonal
/// part with the unmodified [`crate::qr::geqrt_ws`] kernel, and write
/// the updated panel (R rows over the reflector basis) back through the
/// store.
///
/// The sweep is deterministic in the dense input: every arithmetic
/// operation happens on materialized panels, so a [`SpillStore`] run —
/// whatever its cap, however many tiles spilled — produces factors
/// **bitwise identical** to the [`MemStore`] run.
pub fn geqrt_out_of_core<S: TileStore>(tm: &mut TiledMatrix<S>) -> OocQr {
    with_thread_arena(|ws| geqrt_out_of_core_ws(ws, tm))
}

/// [`geqrt_out_of_core`] with an explicit scratch arena.
pub fn geqrt_out_of_core_ws<S: TileStore>(
    ws: &mut dyn ScratchArena,
    tm: &mut TiledMatrix<S>,
) -> OocQr {
    let (m, n) = (tm.rows(), tm.cols());
    assert!(m >= n, "geqrt_out_of_core requires m ≥ n (got {m} × {n})");
    let w = tm.tile();
    let mut panels: Vec<(Matrix, Matrix)> = Vec::new();
    let mut r = Matrix::zeros(n, n);
    let mut c0 = 0;
    while c0 < n {
        let c1 = (c0 + w).min(n);
        // Sequential schedule: the next panel is known now — hint it.
        tm.prefetch_cols(c1, (c1 + w).min(n));
        let mut panel = tm.read_block(0, m, c0, c1);
        // Left-looking catch-up: apply every previous panel's Qᵀ.
        for (i, (v, t)) in panels.iter().enumerate() {
            let i0 = i * w;
            let mut tail = panel.submatrix(i0, m, 0, c1 - c0);
            apply_block_reflector_ws(ws, v, t, &mut tail, true);
            panel.set_submatrix(i0, 0, &tail);
        }
        // Rows 0..c0 are now final R rows; factor the rest.
        let f = geqrt_ws(ws, panel.block(c0, m, 0, c1 - c0));
        for i in 0..c0 {
            r.row_mut(i)[c0..c1].copy_from_slice(panel.row(i));
        }
        for i in 0..c1 - c0 {
            r.row_mut(c0 + i)[c0..c1].copy_from_slice(f.r.row(i));
        }
        // Write back what the factorization left in these columns: the
        // finished R rows on top, the reflector basis below — so the
        // store carries the factorization's full state (and a bounded
        // store exercises its dirty-eviction path on every panel).
        panel.set_submatrix(c0, 0, &f.v);
        tm.write_block(0, c0, &panel);
        panels.push((f.v, f.t));
        c0 = c1;
    }
    tm.store_mut().flush();
    OocQr {
        panels,
        r,
        panel_width: w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::geqrt;

    #[test]
    fn cache_bytes_env_parses_and_defaults() {
        let of = |v: &str| {
            let v = v.to_string();
            move |_: &str| Some(v.clone())
        };
        // Unset: the default.
        assert_eq!(
            tile_cache_bytes_from_lookup(|_| None),
            TILE_CACHE_BYTES_DEFAULT
        );
        // Accepted.
        assert_eq!(parse_tile_cache_bytes(" 4096 "), Some(4096));
        assert_eq!(tile_cache_bytes_from_lookup(of(" 4096 ")), 4096);
        // Rejected: the parse refuses, and the lookup panics naming the
        // variable and the value.
        for bad in ["0", "-5", "lots", "", "1e6"] {
            assert_eq!(parse_tile_cache_bytes(bad), None, "{bad:?}");
        }
        let err = std::panic::catch_unwind(|| tile_cache_bytes_from_lookup(of("lots")))
            .expect_err("a bad value panics");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("QR3D_TILE_CACHE_BYTES=\"lots\""), "{msg}");
    }

    #[test]
    fn mem_store_roundtrip_and_zero_default() {
        let mut s = MemStore::new(4);
        let mut out = vec![9.0; 4];
        s.get((3, 5), &mut out);
        assert_eq!(out, vec![0.0; 4]);
        s.put((3, 5), &[1.0, -0.0, f64::MIN_POSITIVE, 4.5]);
        s.get((3, 5), &mut out);
        assert_eq!(out[0], 1.0);
        assert!(out[1] == 0.0 && out[1].is_sign_negative(), "−0.0 preserved");
        assert_eq!(out[2], f64::MIN_POSITIVE);
    }

    #[test]
    fn spill_store_roundtrips_bitwise_through_the_file() {
        // Cap of one tile: every second tile forces an eviction, so the
        // read-back below necessarily travels through the spill file.
        let mut s = SpillStore::with_capacity(3, 3 * size_of::<f64>());
        let tiles: Vec<(TileKey, Vec<f64>)> = (0..6)
            .map(|i| {
                let k = (i, i * 2);
                let v = vec![i as f64 + 0.25, -(i as f64), 1.0 / (i as f64 + 1.0)];
                (k, v)
            })
            .collect();
        for (k, v) in &tiles {
            s.put(*k, v);
        }
        assert!(s.stats().spill_writes >= 5, "evictions spilled dirty tiles");
        let mut out = vec![0.0; 3];
        for (k, v) in &tiles {
            s.get(*k, &mut out);
            for (a, b) in out.iter().zip(v) {
                assert_eq!(a.to_bits(), b.to_bits(), "file round-trip is bitwise");
            }
        }
        assert!(s.stats().spill_reads >= 5);
        assert!(s.resident_bytes() <= s.cap_bytes());
    }

    #[test]
    fn pinned_tiles_survive_a_full_cache_and_exceed_the_cap() {
        let mut s = SpillStore::with_capacity(2, 2 * size_of::<f64>());
        s.put((0, 0), &[1.0, 2.0]);
        s.pin((0, 0));
        // Streaming more tiles than the cap cannot evict the pin.
        for i in 1..10 {
            s.put((i, 0), &[i as f64, 0.0]);
        }
        assert!(s.is_resident((0, 0)), "pinned tile never evicts");
        assert!(
            s.resident_bytes() > 0,
            "pin keeps at least its own tile resident"
        );
        s.unpin((0, 0));
        for i in 10..14 {
            s.put((i, 0), &[0.0, 0.0]);
        }
        let mut out = vec![0.0; 2];
        s.get((0, 0), &mut out);
        assert_eq!(out, vec![1.0, 2.0], "unpinned tile spilled, not dropped");
    }

    #[test]
    fn flush_persists_then_clean_eviction_skips_rewrite() {
        let mut s = SpillStore::with_capacity(2, 4 * 2 * size_of::<f64>());
        for i in 0..4 {
            s.put((i, 0), &[i as f64, 1.0]);
        }
        s.flush();
        let writes = s.stats().spill_writes;
        assert_eq!(writes, 4, "flush wrote each dirty tile once");
        // Clean tiles evict without touching the file again.
        for i in 4..8 {
            s.put((i, 0), &[0.0, 0.0]);
        }
        assert!(s.stats().evictions >= 4);
        assert_eq!(
            s.stats().spill_writes,
            writes,
            "evicting the flushed (clean) tiles must not rewrite them"
        );
        let mut out = vec![0.0; 2];
        s.get((2, 0), &mut out);
        assert_eq!(out, vec![2.0, 1.0], "flushed bytes read back");
    }

    #[test]
    fn prefetch_faults_in_without_evicting() {
        let mut s = SpillStore::with_capacity(1, 4 * size_of::<f64>());
        for i in 0..8 {
            s.put((i, 0), &[i as f64]);
        }
        // Drop residency so the hints have spare capacity to fill.
        s.evict_unpinned();
        assert_eq!(s.resident_bytes(), 0);
        let before = s.stats();
        s.prefetch(&[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)]);
        let after = s.stats();
        assert!(after.prefetched > 0, "spare capacity served some hints");
        assert_eq!(after.evictions, before.evictions, "hints never evict");
        assert!(s.resident_bytes() <= s.cap_bytes());
        // A hinted tile now hits (the hints ran in schedule order, so
        // the first hinted keys are the resident ones).
        let mut out = vec![0.0];
        let h = s.stats().hits;
        s.get((0, 0), &mut out);
        assert_eq!(out, vec![0.0]);
        s.get((2, 0), &mut out);
        assert_eq!(out, vec![2.0]);
        assert_eq!(s.stats().hits, h + 2);
    }

    #[test]
    fn tiled_matrix_roundtrips_bitwise_on_both_stores() {
        let a = Matrix::random(13, 9, 42); // deliberately tile-ragged
        for tile in [1usize, 3, 4, 16] {
            let mut mem = TiledMatrix::from_matrix(MemStore::new(tile * tile), &a, tile);
            let spill = SpillStore::with_capacity(tile * tile, 2 * tile * tile * 8);
            let mut sp = TiledMatrix::from_matrix(spill, &a, tile);
            let am = mem.to_matrix();
            let asp = sp.to_matrix();
            for (x, y) in am.as_slice().iter().zip(a.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in asp.as_slice().iter().zip(a.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn read_write_block_subranges() {
        let a = Matrix::random(10, 10, 7);
        let mut tm = TiledMatrix::from_matrix(MemStore::new(9), &a, 3);
        let b = tm.read_block(2, 7, 3, 9);
        assert_eq!((b.rows(), b.cols()), (5, 6));
        assert_eq!(b[(0, 0)], a[(2, 3)]);
        assert_eq!(b[(4, 5)], a[(6, 8)]);
        let patch = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 100.0);
        tm.write_block(4, 4, &patch);
        let back = tm.to_matrix();
        assert_eq!(back[(4, 4)], 100.0);
        assert_eq!(back[(5, 5)], 103.0);
        assert_eq!(back[(4, 3)], a[(4, 3)], "neighbors untouched");
    }

    #[test]
    fn out_of_core_geqrt_is_accurate() {
        let a = crate::qr::random_with_condition(48, 20, 1e3, 11);
        let mut tm = TiledMatrix::from_matrix(MemStore::new(64), &a, 8);
        let f = geqrt_out_of_core(&mut tm);
        assert!(f.r.is_upper_triangular(0.0), "R strictly upper triangular");
        assert!(f.residual(&a) < 1e-12, "residual {}", f.residual(&a));
        // Q has orthonormal columns.
        let q = f.thin_q(48);
        let mut g = Matrix::zeros(20, 20);
        gemm(Trans::Yes, Trans::No, 1.0, &q, &q, 0.0, &mut g);
        g.sub_assign(&Matrix::identity(20));
        assert!(g.max_abs() < 1e-13);
    }

    #[test]
    fn spill_sweep_matches_mem_sweep_bitwise() {
        // The acceptance gate's unit-level version: a cache far smaller
        // than the matrix (4 tiles of a 6 × 3-tile grid) must not move a
        // bit of the factorization.
        let a = Matrix::random(48, 24, 3);
        let tile = 8usize;
        let mut mem = TiledMatrix::from_matrix(MemStore::new(tile * tile), &a, tile);
        let spill = SpillStore::with_capacity(tile * tile, 4 * tile * tile * 8);
        let mut sp = TiledMatrix::from_matrix(spill, &a, tile);
        let fm = geqrt_out_of_core(&mut mem);
        let fs = geqrt_out_of_core(&mut sp);
        assert!(
            sp.store().stats().evictions > 0,
            "the cap must actually force spills"
        );
        for (x, y) in fm.r.as_slice().iter().zip(fs.r.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "R diverged across stores");
        }
        for ((vm, tm_), (vs, ts)) in fm.panels.iter().zip(&fs.panels) {
            for (x, y) in vm.as_slice().iter().zip(vs.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "V diverged across stores");
            }
            for (x, y) in tm_.as_slice().iter().zip(ts.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "T diverged across stores");
            }
        }
        assert_eq!(
            fm.residual(&a).to_bits(),
            fs.residual(&a).to_bits(),
            "residuals must match bitwise"
        );
    }

    #[test]
    fn single_panel_sweep_matches_plain_geqrt_bitwise() {
        // With one panel covering all columns and no prior reflectors,
        // the sweep *is* geqrt on the dense matrix.
        let a = Matrix::random(24, 6, 9);
        let mut tm = TiledMatrix::from_matrix(MemStore::new(64), &a, 8);
        let f = geqrt_out_of_core(&mut tm);
        let g = geqrt(&a);
        for (x, y) in f.r.as_slice().iter().zip(g.r.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in f.panels[0].0.as_slice().iter().zip(g.v.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let path;
        {
            let mut s = SpillStore::with_capacity(1, 8);
            s.put((0, 0), &[1.0]);
            s.put((1, 0), &[2.0]); // forces the file into existence
            path = s.path.clone().expect("spill file created");
            assert!(path.exists());
        }
        assert!(!path.exists(), "temp file cleaned up");
    }
}

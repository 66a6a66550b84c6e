//! Micro-assert: a warmed `candidates_into` is allocation-free for every
//! routing mechanism.
//!
//! The simulator computes candidate lists through one long-lived
//! `RouteScratch` and reuses each per-VC output vector, so once their
//! capacities have grown, no mechanism may allocate per call: not the
//! escape tables (the Up/Down candidates stream straight into `out`), not
//! the coordinate-based algorithms (single coordinates instead of
//! coordinate vectors). A counting global allocator pins that here.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hyperx_routing::{Candidate, MechanismSpec, NetworkView, PacketState, RouteScratch};
use hyperx_topology::{FaultSet, HyperX};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const SPECS: [MechanismSpec; 10] = [
    MechanismSpec::Minimal,
    MechanismSpec::Valiant,
    MechanismSpec::OmniWAR,
    MechanismSpec::Polarized,
    MechanismSpec::OmniSP,
    MechanismSpec::PolSP,
    MechanismSpec::Dor,
    MechanismSpec::Dal,
    MechanismSpec::OmniSPTree,
    MechanismSpec::PolSPTree,
];

#[test]
fn warmed_candidates_into_does_not_allocate() {
    // A faulty 4×4×4 whose escape root is not switch 0, so the escape
    // tables see Up, Down and horizontal links.
    let hx = HyperX::regular(3, 4);
    let mut frng = ChaCha8Rng::seed_from_u64(7);
    let faults = FaultSet::random_connected_sequence(hx.network(), 40, &mut frng);
    let view = Arc::new(NetworkView::with_faults(hx, &faults, 21));
    let n = view.hyperx().num_switches();
    let dims = view.hyperx().dims();
    for spec in SPECS {
        let mech = spec.build(view.clone(), spec.faulty_num_vcs(dims));
        let mut rng = ChaCha8Rng::seed_from_u64(spec as u64);
        // Packets walked hop by hop, so the queries cover sources,
        // intermediate switches, escape packets and destinations.
        let mut queries: Vec<(PacketState, usize)> = Vec::new();
        for k in 0..12usize {
            let (src, dst) = ((k * 11) % n, (k * 29 + 5) % n);
            let mut state = mech.init_packet(src, dst, &mut rng);
            if k % 3 == 2 {
                state.in_escape = spec.is_surepath();
            }
            let mut current = src;
            for hop in 0..2 * n {
                queries.push((state, current));
                let mut cands = Vec::new();
                mech.candidates(&state, current, &mut cands);
                if current == dst || cands.is_empty() {
                    break;
                }
                let pick = cands[(k + hop) % cands.len()];
                let next = view.network().neighbor(current, pick.port).unwrap().switch;
                mech.note_hop(&mut state, current, next, &pick);
                current = next;
            }
        }
        let mut scratch = RouteScratch::default();
        let mut out: Vec<Candidate> = Vec::new();
        // Warm-up: grow the scratch and output capacities.
        for (state, current) in &queries {
            out.clear();
            mech.candidates_into(state, *current, &mut scratch, &mut out);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut offered = 0;
        for (state, current) in &queries {
            out.clear();
            mech.candidates_into(state, *current, &mut scratch, &mut out);
            offered += out.len();
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(offered > 0, "{spec}: the walks produced no candidates");
        assert_eq!(
            after - before,
            0,
            "{spec}: a warmed candidates_into allocated over {} queries",
            queries.len()
        );
    }
}

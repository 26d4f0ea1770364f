#pragma once

namespace xlp::bench {

/// Registers every benchmark suite with Registry::global(). Registration
/// is explicit — `xlp bench` and the tests call this — so nothing depends
/// on static-initializer order or on the linker keeping unreferenced
/// objects alive.
///
/// Suites:
///   micro_core     — optimizer/routing kernels (ns/op), including the
///                    service request hash and cache lookup
///   sim            — flit simulator throughput (cycles/sec, packets/sec)
///   svc            — batch server served-requests/sec at 0% / 90%
///                    duplicates, plus the sweep-resubmit cache speedup
///   scalability    — sweep cost/benefit vs network size
///   fault_campaign — Monte Carlo fault-resilience campaign
///   paper          — the paper's figures and tables (Section 5)
///   ablation       — ablations and extensions around them
void register_all_suites();

/// Registers the paper and ablation suites (bench/paper.cpp); called by
/// register_all_suites().
void register_paper_suites();

}  // namespace xlp::bench

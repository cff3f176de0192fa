//! One-shot performance snapshot: times the GF(2^8) kernel tiers
//! (log/antilog reference → PR 1's table-driven scalar → the dispatched
//! SIMD tier) and the Reed–Solomon stripe paths built on them under the
//! *same* harness, plus current throughput of the long-running suites,
//! the sweep engine's shards/sec at 1/2/4 worker threads, fair-share
//! reallocation per flow event at fig7, 1k- and 10k-node scale (the
//! retained naive reference vs the incremental allocator, pinned
//! bit-identical to it), one full 10,000-node sweep shard, and the
//! wall-clock of a fixed fig7-style configuration. Everything is
//! written to `BENCH_PR7.json` in the current directory. The PR 1
//! recorded numbers are embedded as constants so the perf trajectory
//! (log/exp → table-driven → SIMD) stays visible in one file.
//!
//! Run with `cargo run --release -p bench --bin bench_snapshot`.

use std::time::Instant;

use dfs::cluster::SpeedProfile;
use dfs::ecstore::FetchPolicy;
use dfs::erasure::gf256::{mul_acc_slice_ref, Gf256};
use dfs::erasure::rs::{CodeConstruction, ReedSolomon};
use dfs::erasure::{simd, CodeParams};
use dfs::experiment::Policy;
use dfs::netsim::fairshare::{max_min_rates_ref, FairShare};
use dfs::netsim::{NetConfig, Network};
use dfs::presets;
use dfs::simkit::calendar::Calendar;
use dfs::simkit::time::SimTime;
use sweep::{run_sweep, FailureAxis, SweepBase, SweepSpec, WorkloadAxis};

/// Times `op` over enough repetitions to fill ~200ms after one warmup
/// pass, returning seconds per call.
fn time_per_call<F: FnMut()>(mut op: F) -> f64 {
    op();
    let probe = Instant::now();
    op();
    let one = probe.elapsed().as_secs_f64();
    let iters = ((0.2 / one.max(1e-9)) as u64).clamp(3, 10_000);
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

const SHARD_BYTES: usize = 256 * 1024;
/// L1-resident buffer for peak-rate kernel measurement (memory
/// bandwidth stops being the limiter).
const SMALL_BYTES: usize = 16 * 1024;

/// PR 1 recorded `gf256_mul_acc` "opt" throughput (BENCH_PR1.json) —
/// the table-driven-era kernel line this PR is measured against.
const PR1_MUL_ACC_MIB_S: f64 = 24_036.3;
/// PR 1 recorded `rs_decode_12_10_256KiB` "opt" seconds per decode.
const PR1_DECODE_S: f64 = 0.000_468;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn make_shard(bytes: usize, salt: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (i * 31 + salt * 101 + 7) as u8)
        .collect()
}

/// GF(256) multiply-accumulate over one `bytes`-sized buffer, timed for
/// the log/exp reference, the table-driven scalar tier, and the
/// dispatched SIMD tier. Returns seconds per call as (ref, scalar, simd).
fn gf_mul_acc(bytes: usize) -> (f64, f64, f64) {
    let src = make_shard(bytes, 0);
    let mut acc = vec![0u8; bytes];
    let c = Gf256::new(0xCA);
    let ref_s = time_per_call(|| mul_acc_slice_ref(&mut acc, &src, c));
    let scalar = simd::scalar();
    let scalar_s = time_per_call(|| scalar.mul_acc_slice(&mut acc, &src, c));
    let active = simd::active();
    let simd_s = time_per_call(|| active.mul_acc_slice(&mut acc, &src, c));
    (ref_s, scalar_s, simd_s)
}

/// Fused multi-source accumulate (10 sources, the (12,10) decode shape):
/// sequential table-scalar passes vs the dispatched fused kernel.
fn gf_mul_acc_multi() -> (f64, f64) {
    let nsrc = 10usize;
    let sources: Vec<Vec<u8>> = (0..nsrc).map(|s| make_shard(SHARD_BYTES, s)).collect();
    let terms: Vec<(Gf256, &[u8])> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| (Gf256::new((i * 23 + 3) as u8), s.as_slice()))
        .collect();
    let mut acc = vec![0u8; SHARD_BYTES];
    let scalar = simd::scalar();
    let seq_s = time_per_call(|| {
        for &(c, s) in &terms {
            scalar.mul_acc_slice(&mut acc, s, c);
        }
    });
    let active = simd::active();
    let fused_s = time_per_call(|| active.mul_acc_multi(&mut acc, &terms));
    (seq_s, fused_s)
}

type Survivors = Vec<(usize, Vec<u8>)>;

fn decode_fixture() -> (ReedSolomon, Vec<Vec<u8>>, Survivors) {
    let (n, k) = (12usize, 10usize);
    let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap(), CodeConstruction::Cauchy).unwrap();
    let data: Vec<Vec<u8>> = (0..k).map(|s| make_shard(SHARD_BYTES, s)).collect();
    let parity = rs.encode_parity(&data).unwrap();
    let mut stripe = data;
    stripe.extend(parity);
    // Survive on shards 2..12: two data shards lost, both parities used.
    let survivors: Vec<(usize, Vec<u8>)> = (2..n).map(|i| (i, stripe[i].clone())).collect();
    (rs, stripe, survivors)
}

/// Full-stripe decode, (12,10) Cauchy over 256 KiB shards, three ways:
/// the PR 1 log/exp reference shape (fresh zeroed outputs, naive
/// per-byte multiply-accumulate), the PR 1 table-driven algorithm
/// (buffer-reusing combine with one sequential scalar `mul_acc` sweep
/// per coefficient), and the current SIMD fused `decode_data_into`.
fn rs_decode() -> (f64, f64, f64) {
    let (rs, _stripe, survivors) = decode_fixture();
    let k = 10usize;
    let indices: Vec<usize> = survivors.iter().map(|&(i, _)| i).collect();
    let inv = rs.encode_matrix().select_rows(&indices).inverted().unwrap();

    let ref_s = time_per_call(|| {
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(k);
        for t in 0..k {
            let mut shard = vec![0u8; SHARD_BYTES];
            for (j, (_, survivor)) in survivors.iter().enumerate() {
                mul_acc_slice_ref(&mut shard, survivor, inv[(t, j)]);
            }
            out.push(shard);
        }
        assert_eq!(out.len(), k);
    });

    // PR 1's decode_data_into, pinned to the table-driven scalar tier:
    // seed each output from the first nonzero coefficient, then one
    // full mul_acc sweep per remaining coefficient.
    let scalar = simd::scalar();
    let mut table_out: Vec<Vec<u8>> = vec![Vec::new(); k];
    let table_s = time_per_call(|| {
        for (t, o) in table_out.iter_mut().enumerate() {
            let row: Vec<Gf256> = (0..k).map(|j| inv[(t, j)]).collect();
            let j0 = row.iter().position(|c| !c.is_zero()).unwrap();
            o.clear();
            o.extend_from_slice(&survivors[j0].1);
            scalar.mul_slice_in_place(o, row[j0]);
            for (j, (_, survivor)) in survivors.iter().enumerate().skip(j0 + 1) {
                scalar.mul_acc_slice(o, survivor, row[j]);
            }
        }
    });

    let mut out: Vec<Vec<u8>> = Vec::new();
    let simd_s = time_per_call(|| rs.decode_data_into(&survivors, &mut out).unwrap());
    assert_eq!(out, table_out, "scalar and SIMD decodes must agree");
    (ref_s, table_s, simd_s)
}

/// Single-shard degraded read, (12,10) over 256 KiB: the pre-PR 6 path
/// (full `decode_data_into`, then take the one wanted shard) vs the
/// single-row `reconstruct_shard_into`.
fn rs_reconstruct_one() -> (f64, f64) {
    let (rs, stripe, survivors) = decode_fixture();
    let mut full: Vec<Vec<u8>> = Vec::new();
    let full_s = time_per_call(|| {
        rs.decode_data_into(&survivors, &mut full).unwrap();
        assert_eq!(full[0], stripe[0]);
    });
    let mut one = Vec::new();
    let one_s = time_per_call(|| {
        rs.reconstruct_shard_into(&survivors, 0, &mut one).unwrap();
        assert_eq!(one.len(), SHARD_BYTES);
    });
    assert_eq!(one, stripe[0]);
    (full_s, one_s)
}

/// Builds the synthetic reallocation mix used by the fair-share suites:
/// `flows` transfers over a `nodes`-host, `racks`-rack topology with
/// two links per host and two per rack (the netsim link layout).
fn scale_paths(nodes: usize, racks: usize, flows: usize) -> Vec<Vec<usize>> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (nodes as u64);
    (0..flows)
        .map(|_| {
            let src = (xorshift(&mut state) as usize) % nodes;
            let dst = (xorshift(&mut state) as usize) % nodes;
            let (sr, dr) = (src / (nodes / racks), dst / (nodes / racks));
            if src == dst {
                Vec::new()
            } else if sr == dr {
                vec![2 * src, 2 * dst + 1]
            } else {
                vec![
                    2 * src,
                    2 * nodes + 2 * sr,
                    2 * nodes + 2 * dr + 1,
                    2 * dst + 1,
                ]
            }
        })
        .collect()
}

/// Fair-share reallocation per flow event: `flows` live transfers, and
/// each timed churn step removes one flow, adds one from a fresh mix and
/// recomputes every rate — the work a network does when a transfer ends
/// and another starts. The reference rebuilds its input and re-scans
/// every link; the incremental allocator updates its link→flow
/// incidence and runs the freeze rounds over the loaded links. The
/// incremental rates are pinned bit-identical to the reference over the
/// final live set. Returns (reference, incremental) seconds per step.
fn fairshare_realloc_at(nodes: usize, racks: usize, flows: usize) -> (f64, f64) {
    let num_links = 2 * nodes + 2 * racks;
    let caps = vec![1e9f64; num_links];
    let mix = scale_paths(nodes, racks, 2 * flows);
    let (initial, arrivals) = mix.split_at(flows);
    let churn = |state: &mut u64, step: &mut usize| {
        let slot = (xorshift(state) as usize) % flows;
        let next = &arrivals[*step % arrivals.len()];
        *step += 1;
        (slot, next)
    };

    let mut live: Vec<Vec<usize>> = initial.to_vec();
    let (mut state, mut step) = (0x243f_6a88_85a3_08d3u64, 0usize);
    let ref_s = time_per_call(|| {
        let (slot, next) = churn(&mut state, &mut step);
        live.swap_remove(slot);
        live.push(next.clone());
        let rates = max_min_rates_ref(&caps, &live);
        assert_eq!(rates.len(), flows);
    });

    let as_u32 = |p: &[usize]| p.iter().map(|&l| l as u32).collect::<Vec<u32>>();
    let mut fs = FairShare::new();
    for p in initial {
        fs.push(&as_u32(p));
    }
    let mut rates = Vec::new();
    let (mut state, mut step) = (0x243f_6a88_85a3_08d3u64, 0usize);
    let incremental_s = time_per_call(|| {
        let (slot, next) = churn(&mut state, &mut step);
        fs.swap_remove(slot);
        fs.push(&as_u32(next));
        fs.compute(&caps, &mut rates);
        assert_eq!(rates.len(), flows);
    });
    let live: Vec<Vec<usize>> = (0..flows)
        .map(|s| fs.path(s).iter().map(|&l| l as usize).collect())
        .collect();
    assert_eq!(
        rates,
        max_min_rates_ref(&caps, &live),
        "incremental fair-share drifted from the retained reference at {nodes} nodes"
    );
    (ref_s, incremental_s)
}

/// The sweep-throughput grid: 12 fig7-small shards (LF/EDF × node/rack
/// failure × 3 seeds on one (8,6) code).
fn sweep_bench_spec() -> SweepSpec {
    SweepSpec {
        base: SweepBase::fig7_small(),
        policies: vec![Policy::LocalityFirst, Policy::EnhancedDegradedFirst],
        codes: vec![(8, 6)],
        failures: vec![FailureAxis::SingleNode, FailureAxis::Rack],
        workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
        fetch_policies: vec![FetchPolicy::Exact],
        speeds: vec![SpeedProfile::Homogeneous],
        seeds: vec![1, 2, 3],
    }
}

/// Sweep engine throughput in shards/sec at each thread count, with
/// the merged report checked byte-identical against the single-thread
/// baseline (the engine's determinism contract, enforced here so a
/// perf number can never come from a wrong result).
fn sweep_shards_per_sec(thread_counts: &[usize]) -> Vec<(usize, f64)> {
    let spec = sweep_bench_spec();
    let shards = 12.0;
    let baseline = run_sweep(&spec, 1).expect("sweep runs").to_json();
    thread_counts
        .iter()
        .map(|&threads| {
            let per_call = time_per_call(|| {
                let report = run_sweep(&spec, threads).expect("sweep runs");
                assert_eq!(report.shards_ok(), 12);
            });
            let json = run_sweep(&spec, threads).expect("sweep runs").to_json();
            assert_eq!(json, baseline, "report changed at {threads} threads");
            (threads, shards / per_call)
        })
        .collect()
}

/// One full 10,000-node sweep shard (scale_10k base: 100 racks × 100
/// hosts, 7500 blocks), run once; returns wall-clock seconds.
fn scale_10k_shard_wall() -> f64 {
    let spec = SweepSpec {
        base: SweepBase::scale_10k(),
        policies: vec![Policy::LocalityFirst],
        codes: vec![(8, 6)],
        failures: vec![FailureAxis::SingleNode],
        workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
        fetch_policies: vec![FetchPolicy::Exact],
        speeds: vec![SpeedProfile::Homogeneous],
        seeds: vec![1],
    };
    let start = Instant::now();
    let report = run_sweep(&spec, 1).expect("sweep runs");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(report.shards_ok(), 1, "10k-node shard must complete");
    wall
}

/// The `netsim_flows` churn workload (drive a 40-node network through
/// `flows` transfers to completion), as ops/sec per flow.
fn netsim_churn_ops(flows: u64) -> f64 {
    let per_call = time_per_call(|| {
        let mut net = Network::new(&[10, 10, 10, 10], NetConfig::gigabit());
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut now = SimTime::ZERO;
        for _ in 0..flows {
            let src = (xorshift(&mut state) % 40) as usize;
            let dst = (xorshift(&mut state) % 40) as usize;
            let bytes = 1_000_000 + xorshift(&mut state) % 64_000_000;
            net.start_flow(now, src, dst, bytes);
            if let Some(t) = net.next_completion() {
                now = t;
                net.complete_flows(now);
            }
        }
        while let Some(t) = net.next_completion() {
            net.complete_flows(t);
            if net.active_flows() == 0 {
                break;
            }
        }
    });
    flows as f64 / per_call
}

/// The `event_calendar` schedule+pop workload, ops/sec.
fn calendar_ops(events: u64) -> f64 {
    let per_call = time_per_call(|| {
        let mut cal = Calendar::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..events {
            cal.schedule(
                SimTime::from_micros(xorshift(&mut state) % 1_000_000_000),
                i,
            );
        }
        while cal.pop().is_some() {}
    });
    events as f64 / per_call
}

fn main() {
    let active = simd::active().name();
    let supported: Vec<String> = simd::all_supported()
        .iter()
        .map(|k| format!("\"{}\"", k.name()))
        .collect();
    println!(
        "kernel dispatch: active {active}, supported [{}]",
        supported.join(", ")
    );

    let mib = SHARD_BYTES as f64 / (1024.0 * 1024.0);
    let small_mib = SMALL_BYTES as f64 / (1024.0 * 1024.0);

    let (ma_ref, ma_tab, ma_simd) = gf_mul_acc(SHARD_BYTES);
    println!(
        "gf256 mul-acc 256KiB: ref {:.0} MiB/s, table {:.0} MiB/s, {active} {:.0} MiB/s ({:.2}x vs table)",
        mib / ma_ref,
        mib / ma_tab,
        mib / ma_simd,
        ma_tab / ma_simd
    );
    let (sm_ref, sm_tab, sm_simd) = gf_mul_acc(SMALL_BYTES);
    println!(
        "gf256 mul-acc 16KiB (L1): ref {:.0} MiB/s, table {:.0} MiB/s, {active} {:.0} MiB/s ({:.2}x vs table)",
        small_mib / sm_ref,
        small_mib / sm_tab,
        small_mib / sm_simd,
        sm_tab / sm_simd
    );

    let (mm_seq, mm_fused) = gf_mul_acc_multi();
    println!(
        "gf256 mul-acc-multi 10x256KiB: table-sequential {:.0} MiB/s, fused {:.0} MiB/s ({:.2}x)",
        10.0 * mib / mm_seq,
        10.0 * mib / mm_fused,
        mm_seq / mm_fused
    );

    let (dec_ref, dec_tab, dec_simd) = rs_decode();
    println!(
        "rs decode (12,10) 256KiB: ref {:.2} ms, table {:.2} ms, simd {:.3} ms ({:.2}x vs table, {:.2}x vs PR1 recorded)",
        dec_ref * 1e3,
        dec_tab * 1e3,
        dec_simd * 1e3,
        dec_tab / dec_simd,
        PR1_DECODE_S / dec_simd
    );

    let (rec_full, rec_one) = rs_reconstruct_one();
    println!(
        "rs reconstruct one of (12,10): full-decode {:.2} ms, single-row {:.3} ms ({:.2}x)",
        rec_full * 1e3,
        rec_one * 1e3,
        rec_full / rec_one
    );

    let fairshare_suites =
        [(40, 4, 256), (1_000, 10, 1_024), (10_000, 100, 4_096)].map(|(nodes, racks, flows)| {
            let (reference, incremental) = fairshare_realloc_at(nodes, racks, flows);
            println!(
                "fairshare churn step {nodes} nodes / {flows} flows: ref {:.1} us, \
                 incremental {:.1} us, speedup {:.2}x",
                reference * 1e6,
                incremental * 1e6,
                reference / incremental
            );
            (reference, incremental)
        });
    let [(fs_ref, fs_inc), (fs1k_ref, fs1k_inc), (fs10k_ref, fs10k_inc)] = fairshare_suites;

    let sweep_rates = sweep_shards_per_sec(&[1, 2, 4]);
    for &(threads, rate) in &sweep_rates {
        println!("sweep fig7-small 12 shards @ {threads} thread(s): {rate:.1} shards/s");
    }
    let shard10k_wall = scale_10k_shard_wall();
    println!("sweep scale-10k single shard (10,000 nodes): {shard10k_wall:.2} s wall");

    let encode = {
        let rs =
            ReedSolomon::new(CodeParams::new(12, 10).unwrap(), CodeConstruction::Cauchy).unwrap();
        let data: Vec<Vec<u8>> = (0..10).map(|s| make_shard(SHARD_BYTES, s)).collect();
        let mut parity = Vec::new();
        time_per_call(|| {
            rs.encode_parity_into(&data, &mut parity).unwrap();
            assert_eq!(parity.len(), 2);
        })
    };
    let churn_200 = netsim_churn_ops(200);
    let cal_10k = calendar_ops(10_000);
    let sched = {
        let exp = presets::small_default();
        time_per_call(|| {
            exp.run(Policy::EnhancedDegradedFirst, 1).unwrap();
        })
    };
    let fig7 = {
        let exp = presets::simulation_default();
        let start = Instant::now();
        for policy in [
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ] {
            exp.run(policy, 1).unwrap();
        }
        start.elapsed().as_secs_f64()
    };
    println!("rs encode (12,10): {:.2} ms", encode * 1e3);
    println!("netsim churn 200 flows: {:.0} flows/s", churn_200);
    println!("calendar schedule+pop 10k: {:.0} ops/s", cal_10k);
    println!("engine EDF small run: {:.0} runs/s", 1.0 / sched);
    println!("fig7 fixed config (3 policies, seed 1): {:.2} s", fig7);

    let json = format!(
        r#"{{
  "pr": 7,
  "harness": "cargo run --release -p bench --bin bench_snapshot",
  "kernel_dispatch": {{
    "active": "{active}",
    "supported": [{supported}],
    "force_scalar_env": "ERASURE_FORCE_SCALAR"
  }},
  "gf256_mul_acc_256KiB": {{
    "ref_logexp_mib_per_s": {ref256:.1},
    "table_scalar_mib_per_s": {tab256:.1},
    "simd_mib_per_s": {simd256:.1},
    "simd_vs_table_scalar": {r256:.2},
    "pr1_recorded_mib_per_s": {pr1ma:.1},
    "simd_vs_pr1_recorded": {r256pr1:.2}
  }},
  "gf256_mul_acc_16KiB_l1": {{
    "ref_logexp_mib_per_s": {ref16:.1},
    "table_scalar_mib_per_s": {tab16:.1},
    "simd_mib_per_s": {simd16:.1},
    "simd_vs_table_scalar": {r16:.2}
  }},
  "gf256_mul_acc_multi_10x256KiB": {{
    "table_sequential_mib_per_s": {mmseq:.1},
    "simd_fused_mib_per_s": {mmfused:.1},
    "fused_vs_sequential": {mmr:.2}
  }},
  "rs_decode_12_10_256KiB": {{
    "ref_logexp_s_per_decode": {dref:.6},
    "table_scalar_s_per_decode": {dtab:.6},
    "simd_s_per_decode": {dsimd:.6},
    "simd_vs_table_scalar": {dr:.2},
    "pr1_recorded_s_per_decode": {pr1d:.6},
    "simd_vs_pr1_recorded": {drpr1:.2}
  }},
  "rs_reconstruct_one_12_10_256KiB": {{
    "full_decode_s": {rfull:.6},
    "single_row_s": {rone:.6},
    "speedup": {rr:.2}
  }},
  "netsim_fairshare_realloc_256_flows": {{
    "ref_s_per_call": {fsr:.9},
    "incremental_s_per_call": {fsi:.9},
    "speedup": {fsx:.2},
    "bit_identical_to_ref": true
  }},
  "netsim_fairshare_realloc_1k_nodes_1024_flows": {{
    "ref_s_per_call": {fs1kr:.9},
    "incremental_s_per_call": {fs1ki:.9},
    "speedup": {fs1kx:.2},
    "bit_identical_to_ref": true
  }},
  "netsim_fairshare_realloc_10k_nodes_4096_flows": {{
    "ref_s_per_call": {fs10kr:.9},
    "incremental_s_per_call": {fs10ki:.9},
    "speedup": {fs10kx:.2},
    "bit_identical_to_ref": true
  }},
  "sweep_fig7_small_12_shards_per_sec": {{
    "threads_1": {sw1:.2},
    "threads_2": {sw2:.2},
    "threads_4": {sw4:.2},
    "report_byte_identical_across_threads": true
  }},
  "sweep_scale_10k_single_shard": {{
    "nodes": 10000,
    "blocks": 7500,
    "wall_s": {sh10k:.3}
  }},
  "suites_ops_per_sec": {{
    "rs_codec_encode_12_10": {enc:.2},
    "event_calendar_schedule_pop_10k": {cal:.0},
    "netsim_flows_churn_200": {churn:.0},
    "scheduler_decision_small_edf_runs": {schedr:.2}
  }},
  "fig7_fixed_config_wall_s": {fig7:.3}
}}
"#,
        active = active,
        supported = supported.join(", "),
        ref256 = mib / ma_ref,
        tab256 = mib / ma_tab,
        simd256 = mib / ma_simd,
        r256 = ma_tab / ma_simd,
        pr1ma = PR1_MUL_ACC_MIB_S,
        r256pr1 = (mib / ma_simd) / PR1_MUL_ACC_MIB_S,
        ref16 = small_mib / sm_ref,
        tab16 = small_mib / sm_tab,
        simd16 = small_mib / sm_simd,
        r16 = sm_tab / sm_simd,
        mmseq = 10.0 * mib / mm_seq,
        mmfused = 10.0 * mib / mm_fused,
        mmr = mm_seq / mm_fused,
        dref = dec_ref,
        dtab = dec_tab,
        dsimd = dec_simd,
        dr = dec_tab / dec_simd,
        pr1d = PR1_DECODE_S,
        drpr1 = PR1_DECODE_S / dec_simd,
        rfull = rec_full,
        rone = rec_one,
        rr = rec_full / rec_one,
        fsr = fs_ref,
        fsi = fs_inc,
        fsx = fs_ref / fs_inc,
        fs1kr = fs1k_ref,
        fs1ki = fs1k_inc,
        fs1kx = fs1k_ref / fs1k_inc,
        fs10kr = fs10k_ref,
        fs10ki = fs10k_inc,
        fs10kx = fs10k_ref / fs10k_inc,
        sw1 = sweep_rates[0].1,
        sw2 = sweep_rates[1].1,
        sw4 = sweep_rates[2].1,
        sh10k = shard10k_wall,
        enc = 1.0 / encode,
        cal = cal_10k,
        churn = churn_200,
        schedr = 1.0 / sched,
        fig7 = fig7,
    );
    std::fs::write("BENCH_PR7.json", json).expect("write BENCH_PR7.json");
    println!("wrote BENCH_PR7.json");
}

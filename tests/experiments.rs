//! Integration tests asserting the *shape* of every paper experiment, on
//! scaled-down file sizes so the suite stays fast.

use datagrid::gridftp::transfer::{Protocol, TransferRequest};
use datagrid::prelude::*;

const MB: u64 = 1 << 20;

fn warmed(seed: u64) -> DataGrid {
    let mut grid = paper_testbed(seed).build();
    grid.warm_up(SimDuration::from_secs(60));
    grid
}

/// Fig. 3: FTP and GridFTP track each other; GridFTP pays a constant
/// authentication overhead.
#[test]
fn fig3_shape_ftp_vs_gridftp() {
    let run = |size: u64, protocol: Protocol| {
        let mut grid = warmed(31);
        let src = grid.host_id(canonical_host("alpha01")).unwrap();
        let dst = grid.host_id(canonical_host("gridhit3")).unwrap();
        grid.transfer_between(src, dst, TransferRequest::new(size).with_protocol(protocol))
            .unwrap()
            .duration()
            .as_secs_f64()
    };
    let small_gap = run(32 * MB, Protocol::GridFtp) - run(32 * MB, Protocol::Ftp);
    let large_gap = run(256 * MB, Protocol::GridFtp) - run(256 * MB, Protocol::Ftp);
    assert!(small_gap > 0.0, "GridFTP pays GSI: gap {small_gap}");
    assert!(small_gap < 2.0, "but the overhead is constant: {small_gap}");
    assert!(
        (small_gap - large_gap).abs() < 0.5,
        "overhead must not scale with size: {small_gap} vs {large_gap}"
    );
    // Relative overhead shrinks with size.
    let small_rel = small_gap / run(32 * MB, Protocol::Ftp);
    let large_rel = large_gap / run(256 * MB, Protocol::Ftp);
    assert!(large_rel < small_rel);
}

/// Fig. 4: parallel streams aggregate bandwidth on the lossy 30 Mbps
/// path, with diminishing returns.
#[test]
fn fig4_shape_parallel_streams() {
    let run = |streams: u32| {
        let mut grid = warmed(41);
        let src = grid.host_id(canonical_host("alpha02")).unwrap();
        let dst = grid.host_id(canonical_host("lz04")).unwrap();
        let mut req = TransferRequest::new(64 * MB);
        if streams > 0 {
            req = req.with_parallelism(streams);
        }
        grid.transfer_between(src, dst, req)
            .unwrap()
            .duration()
            .as_secs_f64()
    };
    let none = run(0);
    let s1 = run(1);
    let s2 = run(2);
    let s4 = run(4);
    let s8 = run(8);
    let s16 = run(16);
    // One MODE E stream ≈ stream mode (slightly slower: framing).
    assert!((s1 - none).abs() / none < 0.02, "none {none} vs 1 {s1}");
    assert!(s1 >= none);
    // Monotone improvement with diminishing returns.
    assert!(s2 < s1 * 0.65, "2 streams {s2} vs {s1}");
    assert!(s4 < s2 * 0.75, "4 streams {s4} vs {s2}");
    assert!(s8 <= s4, "8 streams {s8} vs {s4}");
    assert!(s16 <= s8 * 1.05, "16 streams {s16} vs {s8}");
    let gain_1_2 = s1 / s2;
    let gain_8_16 = s8 / s16;
    assert!(gain_1_2 > gain_8_16, "returns must diminish");
}

/// Table 1: the cost-model ranking equals the measured-time ranking.
#[test]
fn table1_shape_ranking_agreement() {
    let mut grid = paper_testbed(51).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 32 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(120));
    let client = grid.host_id("alpha1").unwrap();
    let candidates = grid.score_candidates(client, "file-a").unwrap();
    let mut measured: Vec<(String, f64)> = Vec::new();
    for c in &candidates {
        let mut probe = grid.clone();
        let secs = probe
            .fetch_from(client, "file-a", &c.host_name, FetchOptions::default())
            .unwrap()
            .transfer
            .duration()
            .as_secs_f64();
        measured.push((c.host_name.clone(), secs));
    }
    let mut by_time = measured.clone();
    by_time.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let score_order: Vec<&str> = candidates.iter().map(|c| c.host_name.as_str()).collect();
    let time_order: Vec<&str> = by_time.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(score_order, time_order);
}

/// Fig. 5: the cost history sorts sites best-first and averaging windows
/// work.
#[test]
fn fig5_shape_cost_history() {
    let mut grid = paper_testbed(61).build();
    grid.catalog_mut()
        .register_logical("file-a".parse().unwrap(), 32 * MB)
        .unwrap();
    for host in ["alpha4", "hit0", "lz02"] {
        grid.place_replica("file-a", canonical_host(host)).unwrap();
    }
    grid.warm_up(SimDuration::from_secs(120));
    let client = grid.host_id("alpha1").unwrap();
    let mut history = CostHistory::new();
    for _ in 0..12 {
        grid.warm_up(SimDuration::from_secs(10));
        for c in grid.score_candidates(client, "file-a").unwrap() {
            history.record(&c.host_name, grid.now(), c.score);
        }
    }
    let sorted = history.sorted(grid.now(), SimDuration::from_secs(300));
    assert_eq!(sorted.len(), 3);
    assert_eq!(sorted[0].0, "alpha4");
    assert_eq!(sorted[2].0, "lz02");
    assert!(sorted[0].1 > sorted[1].1 && sorted[1].1 > sorted[2].1);
    // Narrow and wide windows both produce values.
    for w in [10u64, 60, 300] {
        assert!(history
            .average("alpha4", grid.now(), SimDuration::from_secs(w))
            .is_some());
    }
}

/// Future work #1: striped transfers improve aggregate bandwidth.
#[test]
fn striped_transfers_beat_single_source() {
    let mut grid = warmed(71);
    let client = grid.host_id("alpha1").unwrap();
    let hit: Vec<_> = (0..2)
        .map(|i| grid.host_id(&format!("gridhit{i}")).unwrap())
        .collect();
    let req = TransferRequest::new(128 * MB).with_parallelism(2);
    let mut clone = grid.clone();
    let single = clone
        .striped_transfer_between(&hit[..1], client, req)
        .unwrap();
    let striped = grid.striped_transfer_between(&hit, client, req).unwrap();
    assert_eq!(striped.stripes, 2);
    assert!(
        striped.duration().as_secs_f64() < single.duration().as_secs_f64() * 0.7,
        "striped {} vs single {}",
        striped.duration(),
        single.duration()
    );
}

/// Partial transfer: only the requested range crosses the network.
#[test]
fn partial_transfers_move_less() {
    let mut grid = warmed(81);
    let src = grid.host_id("gridhit0").unwrap();
    let dst = grid.host_id("alpha1").unwrap();
    let full = grid
        .transfer_between(src, dst, TransferRequest::new(64 * MB))
        .unwrap();
    let partial = grid
        .transfer_between(
            src,
            dst,
            TransferRequest::new(64 * MB).with_range(MB, 8 * MB),
        )
        .unwrap();
    assert_eq!(partial.payload_bytes, 8 * MB);
    assert!(partial.duration() < full.duration());
}

/// Third-party transfer: the client pays control latency only; bytes flow
/// server-to-server.
#[test]
fn third_party_transfer_bypasses_the_client() {
    let mut grid = warmed(91);
    let client = grid.host_id("lz01").unwrap(); // behind the slow 30 Mbps uplink
    let src = grid.host_id("gridhit0").unwrap();
    let dst = grid.host_id("alpha4").unwrap();
    let outcome = grid
        .third_party_transfer(client, src, dst, TransferRequest::new(64 * MB))
        .unwrap();
    // 64 MiB at the ~36 Mbps HIT->THU rate ≈ 15 s. If the bytes had to
    // cross the client's 30 Mbps (lossy, ~4.7 Mbps effective) uplink twice,
    // this would take minutes.
    let secs = outcome.duration().as_secs_f64();
    assert!(secs < 40.0, "third-party copy took {secs}");
    // But the control overhead reflects the client's slow, distant link.
    assert!(outcome.control_overhead().as_millis_f64() > 300.0);
}

/// Control-connection caching: the second fetch from the same server skips
/// the GSI handshake; after the idle TTL the full handshake returns.
#[test]
fn control_connection_cache_skips_gsi_on_reuse() {
    let mut grid = warmed(95);
    let src = grid.host_id("gridhit0").unwrap();
    let dst = grid.host_id("alpha1").unwrap();
    let req = TransferRequest::new(8 * MB);
    let first = grid.transfer_between(src, dst, req).unwrap();
    let second = grid.transfer_between(src, dst, req).unwrap();
    let saved = first.control_overhead().as_secs_f64() - second.control_overhead().as_secs_f64();
    // GSI on this path costs ~0.2 s (4 RTTs of 12.4 ms + crypto).
    assert!(saved > 0.1, "cached session should skip GSI: saved {saved}");

    // A different destination is a different cache entry.
    let other = grid.host_id("alpha2").unwrap();
    let cold = grid.transfer_between(src, other, req).unwrap();
    assert!(
        cold.control_overhead() > second.control_overhead(),
        "other client must authenticate from scratch"
    );

    // After the 600 s idle TTL, the handshake is paid again.
    grid.warm_up(SimDuration::from_secs(700));
    let expired = grid.transfer_between(src, dst, req).unwrap();
    let regression =
        expired.control_overhead().as_secs_f64() - second.control_overhead().as_secs_f64();
    assert!(
        regression > 0.1,
        "expired cache must re-authenticate: {regression}"
    );
}

/// The parallelism suggestion recovers the Fig. 4 sweet spot per path.
#[test]
fn suggested_parallelism_matches_path_characteristics() {
    let grid = {
        let mut g = paper_testbed(97).build();
        g.warm_up(SimDuration::from_secs(30));
        g
    };
    let alpha1 = grid.host_id("alpha1").unwrap();
    let alpha4 = grid.host_id("alpha4").unwrap();
    let lz04 = grid.host_id("lz04").unwrap();
    let hit0 = grid.host_id("gridhit0").unwrap();
    // Loss-free gigabit LAN: one stream suffices.
    assert_eq!(grid.suggested_parallelism(alpha4, alpha1), Ok(1));
    // Lossy 30 Mbps path with ~4.7 Mbps per stream: ~7 streams.
    let lz = grid.suggested_parallelism(lz04, alpha1).unwrap();
    assert!((5..=9).contains(&lz), "lz suggestion {lz}");
    // Gigabit WAN with ~36 Mbps per stream: clamped at 16.
    assert_eq!(grid.suggested_parallelism(hit0, alpha1), Ok(16));
}

//! Stage-1 across OS processes: `crp serve --shard-worker --shards 2`
//! children answer per-shard `candidates` requests over the wire with
//! their id-hash share, and a parent started with `--fleet` merges the
//! shares — so the shares must be disjoint and the merged set
//! bit-identical to what one local engine computes.

use prsq_crp::data::{uncertain_dataset, write_season_records, UncertainConfig};
use prsq_crp::prelude::*;
use prsq_crp::serve::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crp-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_dataset(path: &Path) -> UncertainDataset {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 120,
        dim: 2,
        seed: 0x5EED_0123,
        ..UncertainConfig::default()
    });
    write_season_records(&ds, path).expect("write dataset csv");
    ds
}

fn spawn_serve(args: &[&str]) -> (Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crp serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let port = loop {
        line.clear();
        if reader.read_line(&mut line).expect("read server stdout") == 0 {
            panic!("server exited before announcing its address");
        }
        if let Some(rest) = line.strip_prefix("serving on ") {
            let addr = rest.split_whitespace().next().expect("addr token");
            break addr
                .rsplit(':')
                .next()
                .expect("port")
                .parse::<u16>()
                .expect("numeric port");
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, port)
}

#[test]
fn worker_fleet_merges_bit_identically_to_one_process() {
    let dir = scratch("procs");
    let data = dir.join("data.csv");
    let ds = write_dataset(&data);
    let data = data.to_str().unwrap();

    // Two shard workers over the same data; worker `i` will be asked
    // for shard `i` of a 2-way split.
    let worker_args = [
        "serve",
        "--data",
        data,
        "--schema",
        "seasons",
        "--shards",
        "2",
        "--shard-worker",
        "--addr",
        "127.0.0.1:0",
    ];
    let (mut w0, p0) = spawn_serve(&worker_args);
    let (mut w1, p1) = spawn_serve(&worker_args);

    // The parent serves merged `candidates` by fanning out to both.
    let fleet = format!("127.0.0.1:{p0},127.0.0.1:{p1}");
    let (mut parent, pp) = spawn_serve(&[
        "serve",
        "--data",
        data,
        "--schema",
        "seasons",
        "--addr",
        "127.0.0.1:0",
        "--fleet",
        &fleet,
    ]);

    // Ground truth: one local engine over the same dataset.
    let engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.5)).expect("local engine");
    let q = Point::from([4000.0, 4000.0]);

    let mut via_fleet = Client::connect(("127.0.0.1", pp)).expect("connect parent");
    let mut via_worker = Client::connect(("127.0.0.1", p0)).expect("connect worker 0");
    let mut via_worker1 = Client::connect(("127.0.0.1", p1)).expect("connect worker 1");
    let mut split = 0;
    for id in [0u32, 7, 23, 55, 90, 119] {
        let an = ObjectId(id);
        let expected = ExplainSession::candidate_ids(&engine, &q, an).expect("local stage-1");
        // Parent → workers → merge, across three OS processes.
        let merged = via_fleet
            .candidates(&q, an, None)
            .expect("fleet candidates");
        assert_eq!(merged, expected, "fleet merge for {an}");
        // Worker i's share of shard i: disjoint, and merging them
        // client-side gives the same set.
        let s0 = via_worker.candidates(&q, an, Some(0)).expect("shard 0");
        let s1 = via_worker1.candidates(&q, an, Some(1)).expect("shard 1");
        assert!(
            s0.iter().all(|id| !s1.contains(id)),
            "shares of {an} overlap: {s0:?} / {s1:?}"
        );
        if !s0.is_empty() && !s1.is_empty() {
            split += 1;
        }
        assert_eq!(
            merge_candidate_ids([s0, s1]),
            expected,
            "share merge for {an}"
        );
    }
    assert!(
        split > 0,
        "no probe split its candidates across both workers"
    );

    // Shard workers answer stage-1 only, and range-check the shard.
    let err = via_worker
        .explain(&[ObjectId(0)], Some(&q), &[])
        .expect_err("explain refused on a shard worker");
    assert!(err.to_string().contains("stage-1"), "{err}");
    let err = via_worker
        .candidates(&q, ObjectId(0), Some(9))
        .expect_err("shard 9 of 2 is out of range");
    assert!(err.to_string().contains("out of range"), "{err}");

    via_fleet.shutdown().expect("parent bye");
    via_worker.shutdown().expect("worker 0 bye");
    via_worker1.shutdown().expect("worker 1 bye");
    for (name, child) in [("parent", &mut parent), ("w0", &mut w0), ("w1", &mut w1)] {
        let status = child.wait().expect("reap");
        assert!(status.success(), "{name} exits cleanly");
    }
}

//! End-to-end tests of the `chisel-router` binary: synth a table, build
//! an engine over it, run lookups, and replay an MRT trace — the whole
//! downstream-user path through real process invocations.

use std::process::Command;

fn router() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chisel-router"))
}

fn tempdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chisel-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

#[test]
fn synth_stats_lookup_roundtrip() {
    let dir = tempdir();
    let table = dir.join("table.txt");

    let out = router()
        .args(["synth", "3000", table.to_str().unwrap(), "42"])
        .output()
        .expect("synth runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = router()
        .args(["stats", table.to_str().unwrap()])
        .output()
        .expect("stats runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3000 prefixes"), "{text}");
    assert!(text.contains("on-chip storage"), "{text}");

    // Look up the first prefix's network address: must route.
    let first = std::fs::read_to_string(&table).expect("table readable");
    let addr = first
        .lines()
        .next()
        .unwrap()
        .split('/')
        .next()
        .unwrap()
        .to_string();
    let out = router()
        .args(["lookup", table.to_str().unwrap(), &addr])
        .output()
        .expect("lookup runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("-> nh"), "{text}");
}

#[test]
fn replay_mrt_trace() {
    use chisel::workloads::{
        generate_trace, rrc_profiles, synthesize, write_mrt, PrefixLenDistribution,
    };

    let dir = tempdir();
    let table_path = dir.join("replay-table.txt");
    let trace_path = dir.join("trace.mrt");

    let table = synthesize(2_000, &PrefixLenDistribution::bgp_ipv4(), 9);
    let mut f = std::fs::File::create(&table_path).expect("table file");
    chisel::prefix::io::write_table(&mut f, &table).expect("table writes");
    let trace = generate_trace(&table, 5_000, &rrc_profiles()[0]);
    std::fs::write(&trace_path, write_mrt(&trace)).expect("trace writes");

    let out = router()
        .args([
            "replay",
            table_path.to_str().unwrap(),
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("replay runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("5000 events"), "{text}");
    assert!(text.contains("incremental fraction"), "{text}");
}

#[test]
fn multi_addr_lookup_batches_like_scalar() {
    let dir = tempdir();
    let table = dir.join("batch-table.txt");
    let out = router()
        .args(["synth", "1000", table.to_str().unwrap(), "7"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    // Addresses from the table plus guaranteed strangers.
    let text = std::fs::read_to_string(&table).expect("table readable");
    let mut addrs: Vec<String> = text
        .lines()
        .take(40)
        .map(|l| l.split('/').next().unwrap().to_string())
        .collect();
    addrs.push("203.0.113.77".into());

    // One multi-address invocation (batched) vs one invocation per
    // address (a single-key batch): identical routing answers, in order.
    let mut batched = router();
    batched.arg("lookup").arg(table.to_str().unwrap());
    for a in &addrs {
        batched.arg(a);
    }
    let batched = batched.output().expect("batched lookup runs");
    assert!(batched.status.success());
    let batched = String::from_utf8_lossy(&batched.stdout);

    let mut scalar = String::new();
    for a in &addrs {
        let out = router()
            .args(["lookup", table.to_str().unwrap(), a])
            .output()
            .expect("scalar lookup runs");
        assert!(out.status.success());
        scalar.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    assert_eq!(batched, scalar);
    assert_eq!(batched.lines().count(), addrs.len());
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = router().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = router()
        .args(["lookup", "/nonexistent/table", "1.2.3.4"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn replay_with_no_trace_is_a_clean_noop() {
    // Regression: an empty replay (no MRT file, no adversarial stream)
    // used to die on the rate division; it must print the zeroed
    // counter summary and exit 0.
    let dir = tempdir();
    let table = dir.join("noop-table.txt");
    let out = router()
        .args(["synth", "500", table.to_str().unwrap(), "3"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    let out = router()
        .args(["replay", table.to_str().unwrap()])
        .output()
        .expect("empty replay runs");
    assert!(
        out.status.success(),
        "empty replay must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 events"), "{text}");
    assert!(text.contains("(0 updates/s)"), "{text}");
    assert!(text.contains("published generation: 0"), "{text}");
    assert!(text.contains("recovery: 0 re-setup attempts"), "{text}");
    assert!(text.contains("degraded mode: normal"), "{text}");
}

#[test]
fn serve_runs_the_sharded_daemon_to_a_balanced_drain() {
    let dir = tempdir();
    let table = dir.join("serve-table.txt");
    let out = router()
        .args(["synth", "2000", table.to_str().unwrap(), "13"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    let out = router()
        .args([
            "serve",
            table.to_str().unwrap(),
            "--shards",
            "2",
            "--duration",
            "0.3",
            "--adversarial=2000",
        ])
        .output()
        .expect("serve runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dataplane: 2 shard(s)"), "{text}");
    assert!(text.contains("shard 0:"), "{text}");
    assert!(text.contains("shard 1:"), "{text}");
    assert!(text.contains("control:"), "{text}");
    assert!(text.contains("Msps"), "{text}");
    assert!(
        text.contains("counters balanced (hits + misses == lookups)"),
        "{text}"
    );
    assert!(!text.contains("IMBALANCE"), "{text}");
}

#[test]
fn serve_with_journal_drains_to_a_recoverable_checkpoint() {
    let dir = tempdir();
    let table = dir.join("durable-table.txt");
    let journal = dir.join("serve.journal");
    let out = router()
        .args(["synth", "1500", table.to_str().unwrap(), "17"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    let out = router()
        .args([
            "serve",
            table.to_str().unwrap(),
            "--shards",
            "2",
            "--duration",
            "0.3",
            "--adversarial=1500",
            "--journal",
            journal.to_str().unwrap(),
            "--checkpoint-every",
            "256",
        ])
        .output()
        .expect("durable serve runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("durable: journal"), "{text}");
    assert!(text.contains("(final checkpoint at drain)"), "{text}");
    assert!(
        text.contains("counters balanced (hits + misses == lookups)"),
        "{text}"
    );
    assert!(journal.exists(), "journal file must exist after serve");
    let ckpt = dir.join("serve.journal.ckpt");
    assert!(
        ckpt.exists(),
        "default checkpoint sibling must exist after drain"
    );

    // The drain checkpoint makes the run recoverable with an empty tail.
    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 journal record(s) replayed"), "{text}");
    assert!(text.contains("final generation:"), "{text}");
    assert!(text.contains("recover: engine serves"), "{text}");
}

#[test]
fn recover_truncates_torn_tails_and_rejects_interior_damage() {
    use chisel::core::journal::{DurableControl, DurableOptions};
    use chisel::core::SharedChisel;
    use chisel::{AddressFamily, ChiselConfig, NextHop, Prefix, RoutingTable};

    // Build a crashed-process state in-library: checkpoint plus a
    // journal tail that never saw a final checkpoint.
    let dir = tempdir();
    let journal = dir.join("crashed.journal");
    let mut t = RoutingTable::new_v4();
    t.insert(
        Prefix::new(AddressFamily::V4, 0x0A, 8).unwrap(),
        NextHop::new(1),
    );
    let shared = SharedChisel::build(&t, ChiselConfig::ipv4()).unwrap();
    let opts = DurableOptions {
        fsync: false,
        ..DurableOptions::at(&journal, 0)
    };
    let mut dc = DurableControl::create(shared, opts).unwrap();
    for i in 0..12u128 {
        dc.announce(
            Prefix::new(AddressFamily::V4, 0x0A00 | i, 16).unwrap(),
            NextHop::new(10 + i as u32),
        )
        .unwrap();
    }
    drop(dc); // crash: journal holds 12 records past the boot checkpoint

    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12 journal record(s) replayed"), "{text}");
    assert!(text.contains("final generation: 12"), "{text}");

    // Torn tail: recovery still exits 0, one generation short.
    let bytes = std::fs::read(&journal).expect("journal readable");
    std::fs::write(&journal, &bytes[..bytes.len() - 5]).unwrap();
    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs on torn journal");
    assert!(
        out.status.success(),
        "torn tails are recoverable: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final generation: 11"), "{text}");
    assert!(!text.contains("0 torn byte(s)"), "{text}");

    // Interior damage: flip a byte mid-journal — typed failure, exit ≠ 0.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    std::fs::write(&journal, &corrupt).unwrap();
    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs on corrupt journal");
    assert!(
        !out.status.success(),
        "interior corruption must fail recovery"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

/// FNV-1a over `bytes` — the section checksum of the image and
/// checkpoint wire formats.
fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5u32, |sum, &byte| {
        (sum ^ u32::from(byte)).wrapping_mul(0x0100_0193)
    })
}

/// Splits `bytes[at..]` into one `u64` length + `u32` checksum framed
/// section: returns the body range.
fn section_body(bytes: &[u8], at: usize) -> std::ops::Range<usize> {
    let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    at + 12..at + 12 + len
}

/// Replaces the framed section at `at` with `body`, checksum recomputed.
fn reframe(bytes: &[u8], at: usize, body: &[u8]) -> Vec<u8> {
    let old = section_body(bytes, at);
    let mut out = bytes[..at].to_vec();
    out.extend((body.len() as u64).to_le_bytes());
    out.extend(fnv1a32(body).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&bytes[old.end..]);
    out
}

#[test]
fn recover_names_a_checkpoint_in_the_retired_blocked_layout() {
    use chisel::core::journal::{DurableControl, DurableOptions};
    use chisel::core::SharedChisel;
    use chisel::{AddressFamily, ChiselConfig, NextHop, Prefix, RoutingTable};

    let dir = tempdir();
    let journal = dir.join("old-layout.journal");
    let mut t = RoutingTable::new_v4();
    t.insert(
        Prefix::new(AddressFamily::V4, 0x0A, 8).unwrap(),
        NextHop::new(1),
    );
    let shared = SharedChisel::build(&t, ChiselConfig::ipv4()).unwrap();
    let opts = DurableOptions {
        fsync: false,
        ..DurableOptions::at(&journal, 0)
    };
    let ckpt = opts.checkpoint.clone();
    drop(DurableControl::create(shared, opts).unwrap());

    // Checkpoint: magic 4 + version 2, then the header, routes and image
    // sections. Inside the image (magic 4 + version 2 + header section),
    // the first cell's first partition has its layout tag at body offset
    // 50; rewrite it to the blocked tag older checkpoints carry, with every
    // enclosing checksum recomputed.
    let bytes = std::fs::read(&ckpt).expect("checkpoint readable");
    let routes = section_body(&bytes, 6).end;
    let image_at = section_body(&bytes, routes).end;
    let image = bytes[section_body(&bytes, image_at)].to_vec();
    let cell_at = section_body(&image, 6).end;
    let mut cell = image[section_body(&image, cell_at)].to_vec();
    assert_eq!(cell[50], 0, "checkpoints carry the flat layout");
    cell[50] = 1;
    let forged_image = reframe(&image, cell_at, &cell);
    std::fs::write(&ckpt, reframe(&bytes, image_at, &forged_image)).unwrap();

    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs on an old-layout checkpoint");
    assert!(
        !out.status.success(),
        "an old-layout checkpoint must not load"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("index layout tag 1 is not supported"), "{err}");
}

#[cfg(unix)]
#[test]
fn sigint_drains_serve_gracefully_with_a_final_checkpoint() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    let dir = tempdir();
    let table = dir.join("sig-table.txt");
    let journal = dir.join("sig.journal");
    let out = router()
        .args(["synth", "1000", table.to_str().unwrap(), "19"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    // `--duration 0`: the signal is the only way out.
    let mut child = router()
        .args([
            "serve",
            table.to_str().unwrap(),
            "--shards",
            "2",
            "--duration",
            "0",
            "--adversarial=1000",
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");

    // Give the daemon time to build and start serving, then interrupt.
    std::thread::sleep(Duration::from_millis(1500));
    let kill = std::process::Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "failed to deliver SIGINT");

    // Watchdog: a graceful drain takes well under 30s; a hang means the
    // stop flag never reached the feed loop.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("serve did not drain within 30s of SIGINT");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut text = String::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut text)
        .expect("stdout readable");
    assert!(status.success(), "SIGINT drain must exit 0: {text}");
    assert!(
        text.contains("counters balanced (hits + misses == lookups)"),
        "{text}"
    );
    assert!(text.contains("(final checkpoint at drain)"), "{text}");

    // And the checkpoint the drain wrote is immediately recoverable.
    let out = router()
        .args(["recover", "--journal", journal.to_str().unwrap()])
        .output()
        .expect("recover runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn check_verifies_synthesized_table() {
    let dir = tempdir();
    let table = dir.join("check-table.txt");
    let out = router()
        .args(["synth", "5000", table.to_str().unwrap(), "11"])
        .output()
        .expect("synth runs");
    assert!(out.status.success());

    let out = router()
        .args(["check", table.to_str().unwrap()])
        .output()
        .expect("check runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 violation(s)"), "{text}");
    assert!(text.contains("0 mismatch(es)"), "{text}");
    assert!(text.contains("all invariants hold"), "{text}");
}

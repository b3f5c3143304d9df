//! `bfs --engine pooled --trace PATH` writes the CPU engine's level events
//! as trace JSONL, one v3 `TraversalEvent` per level.

use ibfs::trace::TraversalEvent;
use ibfs_util::{FromJson, Json};
use std::process::Command;

#[test]
fn pooled_engine_trace_holds_v3_level_events_with_wall_seconds() {
    let path = std::env::temp_dir().join(format!("ibfs-cli-trace-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_bfs"))
        .args(["suite:PK", "--engine", "pooled", "--sources", "8", "--trace"])
        .arg(&path)
        .output()
        .expect("bfs runs");
    let text = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "bfs failed: {}", String::from_utf8_lossy(&out.stderr));
    let events: Vec<TraversalEvent> = text
        .expect("bfs wrote the trace file")
        .lines()
        .map(|line| {
            let j = Json::parse(line).expect("each line is JSON");
            assert_eq!(j.get("schema_version"), Some(&Json::UInt(3)), "{line}");
            assert_eq!(j.get("kind").and_then(Json::as_str), Some("level"), "{line}");
            TraversalEvent::from_json(&j).expect("each line is a level event")
        })
        .collect();
    assert!(events.len() > 1, "want a multi-level run, got {events:?}");
    for (i, e) in events.iter().enumerate() {
        assert_eq!((e.group, e.level), (0, i as u32 + 1), "one group, levels in order");
        assert!(e.wall_seconds > 0.0, "{e:?}");
        assert_eq!(e.sim_seconds, 0.0, "{e:?}");
    }
}

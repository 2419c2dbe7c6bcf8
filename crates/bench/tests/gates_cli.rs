//! The `gates` binary's command line: an unknown gate name must not
//! pass for a green run.

use std::process::Command;

#[test]
fn unknown_gate_name_lists_the_valid_ones_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_gates"))
        .arg("bogus")
        .output()
        .expect("run the built gates binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "{stderr}");
    for name in ["load", "chaos", "integrity", "telemetry-overhead"] {
        assert!(stderr.contains(name), "`{name}` not listed in: {stderr}");
    }
}

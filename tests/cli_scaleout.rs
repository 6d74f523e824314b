//! `ccube scaleout` argument validation: a max-P or a message size that
//! does not parse is a usage error (exit 2 with a message), never a
//! silently substituted default grid.

use std::process::{Command, Output};

fn scaleout(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccube"))
        .arg("scaleout")
        .args(args)
        .output()
        .expect("ccube runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = scaleout(args);
    assert_eq!(out.status.code(), Some(2), "scaleout {args:?}");
    assert!(out.stdout.is_empty(), "scaleout {args:?} printed rows");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "scaleout {args:?}: stderr {stderr:?} lacks {needle:?}"
    );
}

#[test]
fn unparsable_max_p_is_rejected() {
    assert_usage_error(&["12x"], "\"12x\"");
}

#[test]
fn max_p_below_four_is_rejected() {
    assert_usage_error(&["3"], "\"3\"");
    assert_usage_error(&["0"], "\"0\"");
}

#[test]
fn unparsable_size_is_rejected() {
    assert_usage_error(&["8", "foo"], "\"foo\"");
    assert_usage_error(&["8", "1", "2.5"], "\"2.5\"");
}

#[test]
fn valid_arguments_print_one_row_per_grid_point() {
    let out = scaleout(&["8", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows: Vec<&str> = stdout.lines().collect();
    assert_eq!(rows.len(), 2, "P in {{4, 8}} x one size: {stdout}");
    assert!(rows[0].starts_with("P=4 ") && rows[1].starts_with("P=8 "));
}

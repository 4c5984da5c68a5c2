//! One child process per cell: the parent spawns itself (or its
//! sibling binary), waits for it, and reads the cell back from its
//! standard output.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::cell::Cell;
use crate::workloads::Workload;

/// Path of a binary of this package, next to the running one.
pub fn sibling_exe(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    Ok(me.with_file_name(name))
}

/// Run `flower-bench cell` in a child process and parse its output.
/// The child has ended when this returns.
pub fn run_cell(workload: Workload, seed: u64) -> Result<Cell, String> {
    let exe = sibling_exe("flower-bench")?;
    let out = Command::new(&exe)
        .arg("cell")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} cell {}: {}",
            exe.display(),
            workload.name(),
            out.status
        ));
    }
    Cell::from_lines(&String::from_utf8_lossy(&out.stdout))
}

//! Every pass of a benchmark run executes in a fresh child process (this
//! binary with `--pass <k>`), which reports its ops to the parent over
//! stdout. In one long-lived process, later passes ran on the heap left by
//! earlier ones and got steadily slower — down to ~0.6× of the first pass
//! on `nn-replicated` — while passes in fresh processes showed no trend.

use crate::probe::OpRecord;
use crate::workloads::{Outcome, Pass};
use std::process::{Command, Stdio};

/// Op kinds the workloads issue (the wire carries them by name).
const KINDS: &[&str] = &["create", "rm", "rename", "ls", "exists", "job", "burst"];

/// What the parent keeps of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    pub ops: Vec<OpRecord>,
    /// CPU seconds of the measured section.
    pub cpu_s: f64,
    /// Wall seconds of the measured section.
    pub wall_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// measured section, in percent.
    pub steal_pct: f64,
    /// Throughput units completed.
    pub units: f64,
    /// CPU seconds of the set-up.
    pub setup_s: f64,
    /// Peak RSS of the process that ran the pass.
    pub rss_mb: f64,
    /// The CPU the pass was pinned to, if pinning worked.
    pub cpu: Option<usize>,
}

impl PassRecord {
    pub fn throughput(&self) -> f64 {
        self.units / self.cpu_s.max(1e-9)
    }
}

/// What the parent keeps of a run.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub passes: Vec<PassRecord>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub plan: String,
}

impl RunRecord {
    /// Units completed per CPU-second over all passes' measured sections.
    pub fn throughput(&self) -> f64 {
        let units: f64 = self.passes.iter().map(|p| p.units).sum();
        let cpu_s: f64 = self.passes.iter().map(|p| p.cpu_s).sum();
        units / cpu_s.max(1e-9)
    }

    /// The record of passes made in this process.
    pub fn from_outcome(o: &Outcome, rss_mb: f64) -> Self {
        let pass = |(p, setup_s): (&Pass, &f64)| PassRecord {
            ops: p.probe.ops.clone(),
            cpu_s: p.totals.cpu.as_secs_f64(),
            wall_s: p.totals.wall.as_secs_f64(),
            steal_pct: p.totals.steal_pct,
            units: p.units,
            setup_s: *setup_s,
            rss_mb,
            cpu: None,
        };
        RunRecord {
            passes: o.passes.iter().zip(&o.setup_s).map(pass).collect(),
            attempted: o.attempted,
            failed: o.failed,
            failures: o.failures.clone(),
            notes: o.notes.clone(),
            plan: o.first().probe.plan_options().to_string(),
        }
    }

    /// The child side of [`run_isolated`]: the record as printed for the
    /// parent.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan {}\n", self.plan));
        for n in &self.notes {
            out.push_str(&format!("note {n}\n"));
        }
        out.push_str(&format!(
            "attempted {}\nfailed {}\n",
            self.attempted, self.failed
        ));
        for f in &self.failures {
            out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        for p in &self.passes {
            let cpu = p.cpu.map_or(-1, |c| c as i64);
            out.push_str(&format!(
                "pass {} {} {} {} {cpu} {} {}\n",
                p.cpu_s, p.units, p.setup_s, p.rss_mb, p.wall_s, p.steal_pct
            ));
            for op in &p.ops {
                out.push_str(&format!(
                    "op {} {} {} {}\n",
                    op.kind, op.cpu_ns, op.sim_ms, op.ok as u8
                ));
            }
        }
        out
    }

    fn absorb(&mut self, text: &str) -> Result<(), String> {
        let num = |s: Option<&str>| -> Result<f64, String> {
            s.and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed number in pass output: {s:?}"))
        };
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut f = rest.split(' ');
            match tag {
                "plan" => self.plan = rest.to_string(),
                "note" if !self.notes.iter().any(|n| n == rest) => self.notes.push(rest.into()),
                "note" => {}
                "attempted" => self.attempted += num(f.next())? as u64,
                "failed" => self.failed += num(f.next())? as u64,
                "failure" => self.failures.push(rest.to_string()),
                "pass" => self.passes.push(PassRecord {
                    cpu_s: num(f.next())?,
                    units: num(f.next())?,
                    setup_s: num(f.next())?,
                    rss_mb: num(f.next())?,
                    cpu: usize::try_from(num(f.next())? as i64).ok(),
                    wall_s: num(f.next())?,
                    steal_pct: num(f.next())?,
                    ops: Vec::new(),
                }),
                "op" => {
                    let name = f.next().unwrap_or_default();
                    let kind = KINDS
                        .iter()
                        .find(|k| **k == name)
                        .ok_or_else(|| format!("unknown op kind `{name}`"))?;
                    let op = OpRecord {
                        kind,
                        cpu_ns: num(f.next())? as u64,
                        sim_ms: num(f.next())? as u64,
                        ok: num(f.next())? != 0.0,
                    };
                    self.passes
                        .last_mut()
                        .ok_or("op before any pass")?
                        .ops
                        .push(op);
                }
                _ => return Err(format!("unexpected pass output line `{line}`")),
            }
        }
        Ok(())
    }
}

/// Run `passes` passes, each in a fresh child process, one after another;
/// pass `k` pins itself to the `k`-th allowed CPU, so every CPU runs an
/// equal share of the passes (on a shared host the vCPUs' speeds differ:
/// by up to 2.5× at one moment on a 2-core KVM guest).
pub fn run_isolated(
    workload: &str,
    seed: u64,
    seconds: u64,
    passes: usize,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut run = RunRecord::default();
    for k in 1..=passes {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .args(["--pass", &k.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a pass: {e}"))?;
        // A pass exits 1 when one of its checks failed; its output still
        // counts. Anything else without output is a crash.
        if !matches!(out.status.code(), Some(0 | 1)) {
            return Err(format!("a pass exited with {}", out.status));
        }
        run.absorb(&String::from_utf8_lossy(&out.stdout))?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_survive_the_wire() {
        let rec = RunRecord {
            passes: vec![PassRecord {
                ops: vec![
                    OpRecord {
                        kind: "create",
                        cpu_ns: 12_345,
                        sim_ms: 3,
                        ok: true,
                    },
                    OpRecord {
                        kind: "burst",
                        cpu_ns: 7,
                        sim_ms: 1,
                        ok: false,
                    },
                ],
                cpu_s: 1.25,
                wall_s: 1.5,
                steal_pct: 0.25,
                units: 2.0,
                setup_s: 0.5,
                rss_mb: 10.75,
                cpu: Some(1),
            }],
            attempted: 3,
            failed: 1,
            failures: vec!["burst 1: late".into()],
            notes: vec!["n".into()],
            plan: "PlanOptions { .. }".into(),
        };
        let mut back = RunRecord::default();
        back.absorb(&rec.to_wire()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{rec:?}"));
        assert!(RunRecord::default().absorb("op mystery 1 1 1").is_err());
    }
}

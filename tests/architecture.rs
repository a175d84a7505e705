//! The design rules the source tree keeps, checked by reading the tree.
//!
//! `GUARDS` has one row per rule: the reason it exists, and what breaking
//! it looks like. Most rows name text that must not come back (a deleted
//! type, a second thread, a second path), matched as literal substrings
//! over every file under the row's scope, the way `git grep -F -- <scope>`
//! reads it: any file, not only `.rs`; `target/` is skipped, and this file,
//! which names every pattern, is outside every scope. Three rules are not
//! text: which packages `salo-gateway` links, what `salo-kernels` exports,
//! and which workspace members a plain `cargo test` runs. Those rows check
//! the manifests and the export list directly.
//!
//! A failure names the broken rule and every `file:line` that breaks it.
//! The other tests hold the guards themselves to account: every scope still
//! names a file, every pattern is found when it is planted, and the three
//! direct checks fail on one planted extra edge, export or missing member.
//!
//! "src" is a file up to the first line holding `#[cfg(test)]`, and
//! `src_and_test_lines_per_crate` prints each crate's src / test line
//! counts on that definition (`cargo test --test architecture
//! src_and_test_lines_per_crate -- --nocapture`).

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// Repository-relative path → contents.
type Tree = BTreeMap<String, String>;

/// This file names every pattern it forbids, so no scope reads it.
const THIS_FILE: &str = "tests/architecture.rs";

/// The line that starts a file's unit tests.
const TEST_MARK: &str = "#[cfg(test)]";

struct Guard {
    reason: &'static str,
    check: Check,
}

enum Check {
    /// No line any part reads holds one of that part's patterns.
    Absent(&'static [Grep]),
    /// `package`'s normal dependencies, followed through every
    /// `Cargo.toml` under `manifests`, never reach `forbidden`.
    Unreachable {
        package: &'static str,
        forbidden: &'static str,
        manifests: &'static [&'static str],
    },
    /// Every line of `file` that starts with `pub ` is one of `allowed`,
    /// and no file under `file`'s directory is named one of `absent`.
    Exports {
        file: &'static str,
        allowed: &'static [&'static str],
        absent: &'static [&'static str],
    },
    /// Every `members` entry of `manifest` under `crates/` is named by one
    /// of its `default-members`, read as pathspecs.
    DefaultMembers { manifest: &'static str },
}

struct Grep {
    patterns: &'static [&'static str],
    /// Pathspecs as `git grep` takes them: a file, a directory, or one
    /// `*` that matches across `/`.
    scope: &'static [&'static str],
    exclude: &'static [&'static str],
    /// Read each file only up to its first `#[cfg(test)]`.
    src_only: bool,
    /// A hit must not continue an identifier on either side.
    whole_word: bool,
}

const fn grep(patterns: &'static [&'static str], scope: &'static [&'static str]) -> Grep {
    Grep { patterns, scope, exclude: &[], src_only: false, whole_word: false }
}

const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];

const GUARDS: &[Guard] = &[
    Guard {
        reason: "a deprecated item is a second way to do something: delete it instead",
        check: Check::Absent(&[grep(&["#[deprecated", "allow(deprecated)"], SOURCES)]),
    },
    Guard {
        reason: "the worker runs steps one way: a step is one LoweredEngine::step call",
        check: Check::Absent(&[grep(
            &["AttentionRequest::DecodeStep {"],
            &["crates/salo-serve/src"],
        )]),
    },
    Guard {
        reason: "a result leaves on the sender its request came in with: no collector, no \
                 second completion thread",
        check: Check::Absent(&[grep(
            &["salo-serve-collector", "enum Completed", "gateway-layers", "layer_ready"],
            &["crates"],
        )]),
    },
    Guard {
        reason: "bench/ is the one instrument, and nothing on the wire stops a gateway or \
                 carries its report",
        check: Check::Absent(&[grep(
            &[
                "bench_trajectory",
                "gateway_bench",
                "BENCH_exec",
                "OP_SHUTDOWN",
                "run_until_shutdown",
                "shutdown_and_report",
            ],
            &["crates", "src", "tests", "examples", "Cargo.toml"],
        )]),
    },
    Guard {
        reason: "a request reaches its worker in one hop: no serve dispatcher, no batcher, one \
                 session table",
        check: Check::Absent(&[grep(
            &[
                "salo-serve-dispatcher",
                "enum Ingress",
                "struct Batcher",
                "struct SessionTable",
                "reap_retired",
                "drain_retired",
            ],
            &["crates"],
        )]),
    },
    Guard {
        reason: "the gateway submits on the thread that admitted or settled: no dispatcher \
                 thread, no condvar to wake one",
        check: Check::Absent(&[grep(
            &["gateway-dispatch", "fn dispatch_loop", "work_ready"],
            &["crates"],
        )]),
    },
    Guard {
        reason: "bench/ is the one instrument; `paper` is the one reproduction binary",
        check: Check::Absent(&[grep(
            &["criterion", "[[bench]]", "run_all", "fn banded_attention"],
            &["Cargo.toml", "Cargo.lock", "crates", "src", "tests", "examples", "vendor"],
        )]),
    },
    Guard {
        reason: "the registry's HistogramSnapshot::merged_with is the one merge",
        check: Check::Absent(&[Grep {
            exclude: &["crates/salo-trace"],
            ..grep(&["fn merged_with"], SOURCES)
        }]),
    },
    Guard {
        reason: "a request is checked by one set of rules: salo-core's engine validators, and \
                 the worker builds the causal clip",
        check: Check::Absent(&[
            grep(&["fn validated_view"], &["crates", "src"]),
            Grep {
                exclude: &["crates/salo-core/src/engine"],
                ..grep(
                    &[
                        "does not cover every global token",
                        "leaves no capacity",
                        "must cover the globals",
                        "leave room to generate",
                    ],
                    &["crates", "src"],
                )
            },
        ]),
    },
    Guard {
        // The unit tests may read a reply with read_frame.
        reason: "a request is decoded as it arrives; a reply is encoded from the engine's own \
                 rows",
        check: Check::Absent(&[
            grep(&["fn raw_bits"], &["crates/salo-gateway/src/gateway.rs"]),
            Grep {
                src_only: true,
                ..grep(&["read_frame("], &["crates/salo-gateway/src/gateway.rs"])
            },
        ]),
    },
    Guard {
        // The unit tests may build an f32 prompt and convert it.
        reason: "an Open is quantized where it arrives: the worker opens only from FixedQkv rows",
        check: Check::Absent(&[Grep {
            src_only: true,
            whole_word: true,
            ..grep(&["Qkv", "AttentionRequest::DecodeOpen"], &["crates/salo-serve/src/worker.rs"])
        }]),
    },
    Guard {
        reason: "the worker calls the engine it owns, and a served step is its raw rows",
        check: Check::Absent(&[
            grep(
                &["AttentionRequest", "AttentionResponse", "HeadStep"],
                &["crates/salo-serve/src"],
            ),
            grep(
                &["PrefillFixed", "DecodeOpenFixed", "DecodeStepBatchFixed"],
                &["crates", "src", "tests", "examples", "README.md"],
            ),
        ]),
    },
    Guard {
        reason: "a decode step is one engine call: no step batch, no fused request, no grouped \
                 pass",
        check: Check::Absent(&[grep(
            &["DecodeStepBatch", "into_step_batch", "run_step_group", "step_batch"],
            &["crates", "src", "tests", "examples", "README.md"],
        )]),
    },
    Guard {
        // The unit tests may quantize an f32 head to build an Incoming.
        reason: "the door quantizes nothing: q, k and v arrive as the 8-bit rows their sender \
                 quantized, and are read as they are",
        check: Check::Absent(&[Grep {
            src_only: true,
            ..grep(&["FixedQkv::quantize", "FixedToken::quantize"], &["crates/salo-gateway/src"])
        }]),
    },
    Guard {
        reason: "one record per fact: a session keeps its serve id on the wire, the DRR round \
                 is what is queued, one map of tenant counters, no parallelism variable",
        check: Check::Absent(&[grep(
            &[
                "wire_sessions",
                "last_wire_session",
                "queued_total",
                "tenant_requests",
                "counters_with_prefix",
                "SALO_PARALLELISM",
            ],
            &["crates"],
        )]),
    },
    Guard {
        reason: "a residual expands into one run arena: no vector per row",
        check: Check::Absent(&[grep(&["vec![Vec::new(); n]"], &["crates/salo-patterns/src"])]),
    },
    Guard {
        reason: "one stage-major executor; its group width is a constant",
        check: Check::Absent(&[
            grep(&["fn run_op_keys"], &["crates/salo-sim/src"]),
            grep(&["env::var"], &["crates/salo-fixed/src", "crates/salo-sim/src/exec.rs"]),
        ]),
    },
    Guard {
        reason: "a part reaches its weighted-sum module as the 32-bit row stage 5 writes: the \
                 group executor keeps no i64 part row, and no accumulator or output is \
                 zero-filled before its first part",
        check: Check::Absent(&[Grep {
            patterns: &["part: PartialRow", "part.out_q19", "out_q19.fill(0)", "Matrix::filled("],
            scope: &["crates/salo-sim/src"],
            exclude: &[],
            src_only: true,
            whole_word: false,
        }]),
    },
    Guard {
        reason: "a datapath head is its raw rows: the simulator builds no f32 copy of an output, \
                 and a served prefill reaches the worker without a conversion",
        check: Check::Absent(&[
            Grep { src_only: true, ..grep(&["to_f32"], &["crates/salo-sim/src"]) },
            grep(&["into_multi_head_run"], SOURCES),
        ]),
    },
    Guard {
        reason: "one request runs on its worker's thread: nothing below a serve worker spawns a \
                 thread",
        check: Check::Absent(&[grep(
            &["thread::", "HeadsScratch", "execute_heads", "sim.shard", "set_parallelism"],
            &["crates/salo-sim/src", "crates/salo-core/src", "crates/salo-fixed/src"],
        )]),
    },
    Guard {
        reason: "one plan map, one way to stop: the plan cache is one map under one lock, and \
                 shutdown is how the runtime stops",
        check: Check::Absent(&[grep(
            &["struct Shard", "shard_capacity", "fn drain(&self", "Draining"],
            &["crates/salo-serve/src"],
        )]),
    },
    Guard {
        // A gateway unit test may name max_batch to show the window ignores it.
        reason: "one energy figure, one f32 multi-head reference, a window no serve option steers",
        check: Check::Absent(&[
            grep(
                &[
                    "EnergyBreakdown",
                    "OpEnergies",
                    "multi_head_attention",
                    "MultiHeadOutput",
                    "reference_head",
                    "SALO_TRACE_BUFFER",
                ],
                SOURCES,
            ),
            Grep { src_only: true, ..grep(&["max_batch"], &["crates/salo-gateway/src/*.rs"]) },
        ]),
    },
    Guard {
        reason: "one op list: a decode plan keeps row programs, not a copy of the lowered plan's \
                 ops",
        check: Check::Absent(&[grep(
            &["ops().to_vec()", ": Vec<LoweredOp>"],
            &["crates/salo-sim/src/decode.rs"],
        )]),
    },
    Guard {
        reason: "a decode plan is its own program: it holds no share of the lowered plan's op \
                 list, so a cached step program keeps none of the prefill's ops alive",
        check: Check::Absent(&[grep(&["Arc<Vec<LoweredOp>>"], &["crates/salo-sim/src/decode.rs"])]),
    },
    Guard {
        reason: "one fixed-point engine: the systolic model is the oracle tests call, not an \
                 engine",
        check: Check::Absent(&[grep(
            &[
                "SystolicEngine",
                "PrefillKernel",
                "struct FixedCore",
                "EngineCaps",
                "event_accurate",
            ],
            SOURCES,
        )]),
    },
    Guard {
        reason: "no per-tenant state below the front door: the gateway counts each tenant where \
                 it admits it",
        check: Check::Absent(&[grep(
            &[
                "TenantCounters",
                "TenantMetrics",
                "record_tenant_rejection",
                "DEFAULT_TENANT",
                "serve.tenant.",
            ],
            SOURCES,
        )]),
    },
    Guard {
        reason: "a served request links only what serves it: the paper's evaluation crate stays \
                 out of salo-gateway's graph",
        check: Check::Unreachable {
            package: "salo-gateway",
            forbidden: "salo-paper",
            manifests: &["Cargo.toml", "crates", "vendor"],
        },
    },
    Guard {
        reason: "salo-kernels holds Matrix, Qkv, KernelError and the RNG: the exact sparse, \
                 dense and golden kernels are salo-paper's",
        check: Check::Exports {
            file: "crates/salo-kernels/src/lib.rs",
            allowed: &[
                "pub use error::KernelError;",
                "pub use matrix::Matrix;",
                "pub use qkv::Qkv;",
                "pub use rng::{gaussian_matrix, gaussian_vec, NormalSampler};",
            ],
            absent: &["dense.rs", "fixed_attn.rs", "sparse.rs"],
        },
    },
    Guard {
        // Whole words, so DecodeSessionHandle and SessionRequest::validate
        // stay; src only, so a crate's own tests may name them in prose.
        reason: "a served crate carries no oracle and no load generator: the f32 reference, its \
                 engine, direct decode sessions, plan validation and the traffic mixes are \
                 salo-paper's",
        check: Check::Absent(&[Grep {
            src_only: true,
            whole_word: true,
            ..grep(
                &[
                    "ReferenceEngine",
                    "sparse_attention",
                    "DecodeSession",
                    "ValidationReport",
                    "TrafficMix",
                    "GenerationTraffic",
                    "GenerationShape",
                ],
                &[
                    "crates/salo-patterns/src",
                    "crates/salo-fixed/src",
                    "crates/salo-kernels/src",
                    "crates/salo-scheduler/src",
                    "crates/salo-sim/src",
                    "crates/salo-core/src",
                    "crates/salo-serve/src",
                    "crates/salo-gateway/src",
                    "crates/salo-trace/src",
                ],
            )
        }]),
    },
    Guard {
        reason: "a plain `cargo test` runs every crate's tests: each workspace member under \
                 crates/ is a default member",
        check: Check::DefaultMembers { manifest: "Cargo.toml" },
    },
];

/// Whether pathspec `spec` names `path`, as `git grep -- <spec>` reads it.
fn names(spec: &str, path: &str) -> bool {
    match spec.split_once('*') {
        Some((head, tail)) => {
            path.len() >= head.len() + tail.len() && path.starts_with(head) && path.ends_with(tail)
        }
        None => {
            path.strip_prefix(spec).is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        }
    }
}

/// `text` up to the line holding its first `#[cfg(test)]`.
fn src_part(text: &str) -> &str {
    let end =
        text.find(TEST_MARK).map_or(text.len(), |at| text[..at].rfind('\n').map_or(0, |n| n + 1));
    &text[..end]
}

fn is_ident(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

impl Grep {
    fn covers(&self, path: &str) -> bool {
        self.scope.iter().any(|spec| names(spec, path))
            && !self.exclude.iter().any(|spec| names(spec, path))
    }

    fn finds(&self, line: &str, pattern: &str) -> bool {
        if !self.whole_word {
            return line.contains(pattern);
        }
        let bytes = line.as_bytes();
        line.match_indices(pattern).any(|(at, _)| {
            let before = at.checked_sub(1).map(|i| bytes[i]);
            let after = bytes.get(at + pattern.len()).copied();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    }

    fn hits(&self, path: &str, text: &str) -> Vec<String> {
        if !self.covers(path) {
            return Vec::new();
        }
        let text = if self.src_only { src_part(text) } else { text };
        text.lines()
            .enumerate()
            .filter(|(_, line)| self.patterns.iter().any(|pattern| self.finds(line, pattern)))
            .map(|(i, line)| format!("{path}:{}: {}", i + 1, line.trim()))
            .collect()
    }
}

/// The `"<name>"` of a `package = "<name>"` in `value`.
fn package_field(value: &str) -> Option<String> {
    let (_, rest) = value.split_once("package")?;
    Some(rest.trim_start().strip_prefix('=')?.split('"').nth(1)?.to_string())
}

/// The quoted strings of the array `key = [...]` in `manifest`, which may
/// span lines; empty when `manifest` has no such key.
fn string_array(manifest: &str, key: &str) -> Vec<String> {
    let mut lines = manifest.lines().map(|line| line.split('#').next().unwrap_or(""));
    let Some(first) = lines.find(|line| line.split_once('=').is_some_and(|(k, _)| k.trim() == key))
    else {
        return Vec::new();
    };
    let mut text = first.to_string();
    while !text.contains(']') {
        let Some(line) = lines.next() else { break };
        text.push_str(line);
    }
    let array = text.split_once('[').map_or("", |(_, rest)| rest.split(']').next().unwrap_or(""));
    array.split('"').skip(1).step_by(2).map(String::from).collect()
}

/// The package a manifest declares, and the packages its normal
/// dependencies name (`[dependencies]`, `[dependencies.<name>]` and
/// `[target.<cfg>.dependencies]`, through a `package = "…"` rename; not
/// dev- or build-dependencies).
fn package_and_deps(manifest: &str) -> Option<(String, Vec<String>)> {
    let unquote = |s: &str| s.trim().trim_matches(|c| c == '"' || c == '\'').to_string();
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim();
            deps.extend(section.strip_prefix("dependencies.").map(unquote));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else { continue };
        let key = key.trim();
        if section == "package" && key == "name" {
            name = Some(unquote(value));
        }
        let normal = section == "dependencies"
            || (section.starts_with("target.") && section.ends_with(".dependencies"));
        if normal {
            let alias = key.split('.').next().unwrap_or(key);
            deps.push(package_field(value).unwrap_or_else(|| unquote(alias)));
        } else if key == "package" && section.starts_with("dependencies.") {
            // The header pushed the alias; this names the package.
            deps.pop();
            deps.push(unquote(value));
        }
    }
    Some((name?, deps))
}

impl Check {
    /// Every path this check reads, as pathspecs.
    fn scope(&self) -> Vec<&'static str> {
        match self {
            Check::Absent(parts) => {
                parts.iter().flat_map(|part| part.scope.iter().copied()).collect()
            }
            Check::Unreachable { manifests, .. } => manifests.to_vec(),
            Check::Exports { file, .. } => vec![*file],
            Check::DefaultMembers { manifest } => vec![*manifest],
        }
    }

    /// What breaks the rule in `tree`, one line each; empty when it holds.
    fn violations(&self, tree: &Tree) -> Vec<String> {
        match self {
            Check::Absent(parts) => parts
                .iter()
                .flat_map(|part| tree.iter().flat_map(|(path, text)| part.hits(path, text)))
                .collect(),
            Check::Unreachable { package, forbidden, manifests } => {
                let graph: BTreeMap<String, Vec<String>> = tree
                    .iter()
                    .filter(|(path, _)| {
                        path.rsplit('/').next() == Some("Cargo.toml")
                            && manifests.iter().any(|spec| names(spec, path))
                    })
                    .filter_map(|(_, text)| package_and_deps(text))
                    .collect();
                // Breadth first, remembering who reached each package, so a
                // failure prints the chain of edges that links it.
                let mut reached_from: BTreeMap<&str, Option<&str>> =
                    BTreeMap::from([(*package, None)]);
                let mut queue = VecDeque::from([*package]);
                while let Some(at) = queue.pop_front() {
                    if at == *forbidden {
                        let mut chain = vec![at];
                        while let Some(&Some(from)) = reached_from.get(chain[chain.len() - 1]) {
                            chain.push(from);
                        }
                        chain.reverse();
                        return vec![format!("normal dependencies: {}", chain.join(" -> "))];
                    }
                    for dep in graph.get(at).into_iter().flatten() {
                        if !reached_from.contains_key(dep.as_str()) {
                            reached_from.insert(dep, Some(at));
                            queue.push_back(dep);
                        }
                    }
                }
                Vec::new()
            }
            Check::Exports { file, allowed, absent } => {
                let dir = file.rsplit_once('/').map_or("", |(dir, _)| dir);
                let extra_files = tree.keys().filter(|path| {
                    names(dir, path)
                        && absent.iter().any(|name| path.rsplit('/').next() == Some(name))
                });
                let extra_exports = tree.get(*file).into_iter().flat_map(|text| {
                    text.lines()
                        .enumerate()
                        .filter(|(_, line)| line.starts_with("pub ") && !allowed.contains(line))
                });
                extra_files
                    .map(|path| format!("{path}: exists"))
                    .chain(extra_exports.map(|(i, line)| format!("{file}:{}: {line}", i + 1)))
                    .collect()
            }
            Check::DefaultMembers { manifest } => {
                let text = tree.get(*manifest).map_or("", String::as_str);
                let defaults = string_array(text, "default-members");
                string_array(text, "members")
                    .into_iter()
                    .filter(|member| names("crates", member))
                    .filter(|member| !defaults.iter().any(|spec| names(spec, member)))
                    .map(|member| format!("{manifest}: `{member}` is not a default member"))
                    .collect()
            }
        }
    }
}

/// Each broken guard's reason with what breaks it.
fn broken(tree: &Tree) -> Vec<(&'static str, Vec<String>)> {
    GUARDS
        .iter()
        .map(|guard| (guard.reason, guard.check.violations(tree)))
        .filter(|(_, hits)| !hits.is_empty())
        .collect()
}

fn read_into(root: &Path, rel: String, tree: &mut Tree) {
    let path = root.join(&rel);
    if path.is_dir() {
        if rel.rsplit('/').next() == Some("target") {
            return;
        }
        let entries = fs::read_dir(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        for entry in entries {
            let name = entry.unwrap_or_else(|e| panic!("{rel}: {e}")).file_name();
            read_into(root, format!("{rel}/{}", name.to_string_lossy()), tree);
        }
    } else if path.is_file() && rel != THIS_FILE {
        let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
        tree.insert(rel, String::from_utf8_lossy(&bytes).into_owned());
    }
}

/// Every file under the top-level paths some guard reads.
fn repo() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut tops: Vec<&str> = GUARDS
            .iter()
            .flat_map(|guard| guard.check.scope())
            .map(|spec| spec.split('/').next().unwrap_or(spec))
            .collect();
        tops.sort_unstable();
        tops.dedup();
        let mut tree = Tree::new();
        for top in tops {
            read_into(root, top.to_string(), &mut tree);
        }
        tree
    })
}

#[test]
fn every_design_guard_holds() {
    let report: Vec<String> = broken(repo())
        .into_iter()
        .map(|(reason, hits)| format!("{reason}\n    {}", hits.join("\n    ")))
        .collect();
    assert!(
        report.is_empty(),
        "{} design guard(s) broken:\n\n{}",
        report.len(),
        report.join("\n\n")
    );
}

/// A scope whose path was renamed away would pass forever.
#[test]
fn every_scope_names_an_existing_file() {
    for guard in GUARDS {
        for spec in guard.check.scope() {
            assert!(
                repo().keys().any(|path| names(spec, path)),
                "`{spec}` names no file; guard: {}",
                guard.reason
            );
        }
    }
}

/// A path inside `part`'s scope and outside its exclusions.
fn planted_path(part: &Grep) -> String {
    let spec = part.scope[0];
    let path = if spec.contains('*') {
        spec.replacen('*', "planted", 1)
    } else if repo().contains_key(spec) {
        spec.to_string()
    } else {
        format!("{spec}/planted.rs")
    };
    assert!(part.covers(&path), "{path} is outside the part that planted it");
    path
}

#[test]
fn every_pattern_planted_in_scope_is_reported_under_its_guard() {
    for guard in GUARDS {
        let Check::Absent(parts) = guard.check else { continue };
        for part in parts {
            let path = planted_path(part);
            for pattern in part.patterns {
                let tree = Tree::from([(path.clone(), format!("fn f() {{}}\n{pattern}\n"))]);
                let hit = format!("{path}:2: {pattern}");
                assert!(
                    broken(&tree).iter().any(|(reason, hits)| *reason == guard.reason
                        && hits == std::slice::from_ref(&hit)),
                    "`{pattern}` at {path} is not reported under: {}",
                    guard.reason
                );
                if part.whole_word {
                    for longer in [format!("X{pattern}"), format!("{pattern}X")] {
                        let tree = Tree::from([(path.clone(), longer.clone())]);
                        assert!(guard.check.violations(&tree).is_empty(), "`{longer}` is reported");
                    }
                }
            }
        }
    }
}

#[test]
fn a_src_only_guard_stops_at_the_first_test_module() {
    let parts = GUARDS.iter().filter_map(|guard| match guard.check {
        Check::Absent(parts) => Some(parts),
        _ => None,
    });
    let src_only: Vec<&Grep> = parts.flatten().filter(|part| part.src_only).collect();
    assert_eq!(
        src_only.len(),
        7,
        "read_frame in gateway.rs, the worker's Qkv, the door's quantize, max_batch, the served \
         crates' oracles, the executor's part rows, the simulator's to_f32"
    );
    for part in src_only {
        let path = planted_path(part);
        let pattern = part.patterns[0];
        let above = format!("{pattern}\n{TEST_MARK}\nmod tests {{}}\n");
        let below = format!("{TEST_MARK}\nmod tests {{ {pattern} }}\n");
        assert_eq!(part.hits(&path, &above), [format!("{path}:1: {pattern}")]);
        assert!(part.hits(&path, &below).is_empty(), "`{pattern}` below {TEST_MARK}");
    }
}

fn guard_by_reason(prefix: &str) -> &'static Guard {
    GUARDS.iter().find(|guard| guard.reason.starts_with(prefix)).expect("a guard with that reason")
}

#[test]
fn the_dependency_guard_fails_on_one_planted_edge() {
    let guard = guard_by_reason("a served request links only what serves it");
    // A direct edge, one two hops down salo-gateway's graph, and renamed
    // edges in both of a manifest's spellings.
    let gateway = "crates/salo-gateway/Cargo.toml";
    for (manifest, edge, chain) in [
        (gateway, "[dependencies]\nsalo-paper.workspace = true\n", "salo-gateway -> salo-paper"),
        (
            "crates/salo-serve/Cargo.toml",
            "[dependencies]\nsalo-paper.workspace = true\n",
            "salo-gateway -> salo-serve -> salo-paper",
        ),
        (
            gateway,
            "[dependencies]\npaper = { package = \"salo-paper\", path = \"../salo-paper\" }\n",
            "salo-gateway -> salo-paper",
        ),
        (
            gateway,
            "[dependencies.paper]\npackage = \"salo-paper\"\npath = \"../salo-paper\"\n\n[dependencies]\n",
            "salo-gateway -> salo-paper",
        ),
    ] {
        let mut tree = repo().clone();
        let text = tree.get_mut(manifest).expect("manifest read");
        *text = text.replacen("[dependencies]\n", edge, 1);
        assert_eq!(guard.check.violations(&tree), [format!("normal dependencies: {chain}")]);
    }
    // A dev-dependency is not linked into what serves.
    let mut tree = repo().clone();
    let text = tree.get_mut(gateway).expect("manifest read");
    *text = text.replacen(
        "[dev-dependencies]\n",
        "[dev-dependencies]\nsalo-paper.workspace = true\n",
        1,
    );
    assert!(guard.check.violations(&tree).is_empty());
}

#[test]
fn the_export_guard_fails_on_one_planted_export_or_file() {
    let guard = guard_by_reason("salo-kernels holds Matrix");
    let Check::Exports { file, .. } = guard.check else {
        panic!("the kernels guard lists exports")
    };
    let mut tree = repo().clone();
    let lib = tree.get_mut(file).expect("lib.rs read");
    lib.push_str("pub fn extra() {}\n");
    let line = lib.lines().count();
    assert_eq!(guard.check.violations(&tree), [format!("{file}:{line}: pub fn extra() {{}}")]);

    for planted in
        ["crates/salo-kernels/src/dense.rs", "crates/salo-kernels/src/golden/fixed_attn.rs"]
    {
        let mut tree = repo().clone();
        tree.insert(planted.to_string(), String::new());
        assert_eq!(guard.check.violations(&tree), [format!("{planted}: exists")]);
    }
}

#[test]
fn the_default_members_guard_fails_on_one_missing_crate() {
    let guard = guard_by_reason("a plain `cargo test` runs every crate's tests");
    let Check::DefaultMembers { manifest } = guard.check else {
        panic!("the default-members guard reads a manifest")
    };
    let text = &repo()[manifest];
    let crates: Vec<String> =
        string_array(text, "members").into_iter().filter(|m| names("crates", m)).collect();
    assert!(crates.len() > 1, "the workspace lists its crates");
    let (left_out, kept) = crates.split_last().expect("a crate");
    let listed: Vec<String> = kept.iter().map(|member| format!("{member:?}")).collect();
    let mut tree = repo().clone();
    let text = tree.get_mut(manifest).expect("manifest read");
    *text = text.replacen("\"crates/*\"", &listed.join(", "), 1);
    assert_eq!(
        guard.check.violations(&tree),
        [format!("{manifest}: `{left_out}` is not a default member")]
    );
}

/// src = each `.rs` file under `crates/<c>/src` up to its first
/// `#[cfg(test)]`; test = the rest of those files plus `crates/<c>/tests`.
#[test]
fn src_and_test_lines_per_crate() {
    let mut table: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (path, text) in repo() {
        let mut parts = path.splitn(4, '/');
        let (Some("crates"), Some(krate), Some(dir @ ("src" | "tests")), Some(_)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if !path.ends_with(".rs") {
            continue;
        }
        let src = if dir == "src" { src_part(text).lines().count() } else { 0 };
        let row = table.entry(krate).or_default();
        row.0 += src;
        row.1 += text.lines().count() - src;
    }
    assert!(!table.is_empty(), "no crate under crates/");
    for (krate, (src, test)) in table {
        println!("{krate:<16} src {src:>6}  test {test:>6}");
    }
}

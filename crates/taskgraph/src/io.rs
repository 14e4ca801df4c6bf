//! Serialization: a JSON-friendly spec type and Graphviz DOT export.

use locmps_speedup::ExecutionProfile;
use serde::{Deserialize, Serialize};

use crate::graph::{EdgeKind, GraphError, TaskGraph, TaskId};

/// A flat, serde-friendly description of a task graph.
///
/// `TaskGraph` keeps redundant adjacency lists, so (de)serialization goes
/// through this DTO, which stores only the essential data and rebuilds the
/// graph (re-validating it) on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskGraphSpec {
    /// Task names and profiles, in id order.
    pub tasks: Vec<TaskSpec>,
    /// Data edges (pseudo-edges are schedule artifacts and never persisted).
    pub edges: Vec<EdgeSpec>,
}

/// One task in a [`TaskGraphSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Task label.
    pub name: String,
    /// Moldable execution-time profile.
    pub profile: ExecutionProfile,
}

/// One data edge in a [`TaskGraphSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Producer task index.
    pub src: u32,
    /// Consumer task index.
    pub dst: u32,
    /// Data volume (MB).
    pub volume: f64,
}

impl From<&TaskGraph> for TaskGraphSpec {
    fn from(g: &TaskGraph) -> Self {
        TaskGraphSpec {
            tasks: g
                .tasks()
                .map(|(_, t)| TaskSpec {
                    name: t.name.clone(),
                    profile: t.profile.clone(),
                })
                .collect(),
            edges: g
                .edges()
                .filter(|(_, e)| e.kind == EdgeKind::Data)
                .map(|(_, e)| EdgeSpec {
                    src: e.src.0,
                    dst: e.dst.0,
                    volume: e.volume,
                })
                .collect(),
        }
    }
}

impl TaskGraphSpec {
    /// Rebuilds (and re-validates) the graph described by this spec.
    ///
    /// Validation covers both the graph structure (edges, acyclicity) and
    /// every task's execution profile — specs usually arrive from JSON,
    /// which bypasses the profile constructors.
    pub fn build(&self) -> Result<TaskGraph, GraphError> {
        let mut g = TaskGraph::with_capacity(self.tasks.len());
        for (i, t) in self.tasks.iter().enumerate() {
            t.profile
                .validate()
                .map_err(|e| GraphError::InvalidProfile {
                    task: TaskId(i as u32),
                    reason: e.to_string(),
                })?;
            g.add_task(t.name.clone(), t.profile.clone());
        }
        for e in &self.edges {
            g.add_edge(TaskId(e.src), TaskId(e.dst), e.volume)?;
        }
        g.validate()?;
        Ok(g)
    }
}

impl TaskGraph {
    /// Serializes the graph (data edges only) to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&TaskGraphSpec::from(self))
            .expect("task graph spec serialization cannot fail")
    }

    /// Parses a graph from JSON produced by [`TaskGraph::to_json`].
    ///
    /// # Errors
    /// Propagates JSON syntax errors as `Err(String)` and graph-validity
    /// errors via [`GraphError`]'s display text.
    pub fn from_json(json: &str) -> Result<TaskGraph, String> {
        let spec: TaskGraphSpec = serde_json::from_str(json).map_err(|e| e.to_string())?;
        spec.build().map_err(|e| e.to_string())
    }

    /// Renders the graph in Graphviz DOT format. Vertices are labelled
    /// `name (seq_time)`; pseudo-edges are dashed.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph G {\n  rankdir=TB;\n");
        for (id, t) in self.tasks() {
            writeln!(
                out,
                "  {} [label=\"{} ({:.1})\"];",
                id.index(),
                dot_escape(&t.name),
                t.profile.seq_time()
            )
            .unwrap();
        }
        for (_, e) in self.edges() {
            match e.kind {
                EdgeKind::Data => writeln!(
                    out,
                    "  {} -> {} [label=\"{:.1}\"];",
                    e.src.index(),
                    e.dst.index(),
                    e.volume
                )
                .unwrap(),
                EdgeKind::Pseudo => writeln!(
                    out,
                    "  {} -> {} [style=dashed];",
                    e.src.index(),
                    e.dst.index()
                )
                .unwrap(),
            }
        }
        out.push_str("}\n");
        out
    }
}

/// `text` escaped for a DOT double-quoted label: a backslash or quote
/// gets a backslash, and a line break becomes `\n`, so untrusted task
/// names cannot end the label or the statement.
fn dot_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locmps_speedup::{ExecutionProfile, SpeedupModel};

    fn sample() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task("A", ExecutionProfile::linear(3.0));
        let b = g.add_task(
            "B",
            ExecutionProfile::new(7.0, SpeedupModel::downey(8.0, 1.0).unwrap()).unwrap(),
        );
        g.add_edge(a, b, 12.5).unwrap();
        g
    }

    #[test]
    fn json_round_trip_preserves_graph() {
        let g = sample();
        let json = g.to_json();
        let back = TaskGraph::from_json(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn pseudo_edges_are_not_persisted() {
        let mut g = sample();
        let c = g.add_task("C", ExecutionProfile::linear(1.0));
        g.add_pseudo_edge(TaskId(0), c).unwrap();
        let back = TaskGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(back.n_edges(), 1);
        assert_eq!(back.n_tasks(), 3);
    }

    #[test]
    fn from_json_rejects_cycles_and_garbage() {
        assert!(TaskGraph::from_json("not json").is_err());
        let spec = TaskGraphSpec {
            tasks: vec![
                TaskSpec {
                    name: "a".into(),
                    profile: ExecutionProfile::linear(1.0),
                },
                TaskSpec {
                    name: "b".into(),
                    profile: ExecutionProfile::linear(1.0),
                },
            ],
            edges: vec![
                EdgeSpec {
                    src: 0,
                    dst: 1,
                    volume: 0.0,
                },
                EdgeSpec {
                    src: 1,
                    dst: 0,
                    volume: 0.0,
                },
            ],
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(TaskGraph::from_json(&json).is_err());
    }

    #[test]
    fn from_json_rejects_smuggled_invalid_profiles() {
        // serde fills profiles field-by-field, so hand-written JSON can
        // carry values the constructors would reject; build() must catch it.
        let bad_seq = r#"{
            "tasks": [{"name": "a", "profile": {"seq_time": -5.0, "model": "Linear"}}],
            "edges": []
        }"#;
        let err = TaskGraph::from_json(bad_seq).unwrap_err();
        assert!(err.contains("invalid profile on task t0"), "{err}");

        let bad_downey = r#"{
            "tasks": [{"name": "a", "profile": {"seq_time": 1.0,
                "model": {"Downey": {"a": 0.5, "sigma": -1.0}}}}],
            "edges": []
        }"#;
        let err = TaskGraph::from_json(bad_downey).unwrap_err();
        assert!(err.contains("invalid profile on task t0"), "{err}");

        let spec = TaskGraphSpec {
            tasks: vec![TaskSpec {
                name: "bad".into(),
                profile: ExecutionProfile::linear(1.0),
            }],
            edges: vec![],
        };
        let json = serde_json::to_string(&spec)
            .unwrap()
            .replace("\"Linear\"", "{\"Amdahl\":{\"serial_fraction\":3.0}}");
        assert!(TaskGraph::from_json(&json).is_err());
    }

    /// Task names come from untrusted JSON: each stays inside its own
    /// quoted label, one node statement per task, and reads back verbatim.
    #[test]
    fn dot_labels_escape_task_names() {
        let names = ["a\"] ; x [label=\"pwn", "back\\slash", "two\nlines"];
        let mut g = TaskGraph::new();
        for name in names {
            g.add_task(name, ExecutionProfile::linear(1.0));
        }
        let dot = g.to_dot();
        let nodes: Vec<&str> = dot.lines().filter(|l| l.contains("[label=")).collect();
        assert_eq!(nodes.len(), names.len(), "{dot}");
        for (i, (line, name)) in nodes.iter().zip(names).enumerate() {
            let quoted = line
                .strip_prefix(&format!("  {i} [label=\""))
                .and_then(|rest| rest.strip_suffix("\"];"))
                .unwrap_or_else(|| panic!("not one node statement: {line}"));
            let mut label = String::new();
            let mut chars = quoted.chars();
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('n') => label.push('\n'),
                        Some(escaped) => label.push(escaped),
                        None => panic!("dangling backslash: {line}"),
                    },
                    '"' => panic!("a quote ends the label early: {line}"),
                    c => label.push(c),
                }
            }
            assert_eq!(label, format!("{name} (1.0)"));
        }
    }

    #[test]
    fn dot_contains_nodes_edges_and_dashed_pseudo() {
        let mut g = sample();
        let c = g.add_task("C", ExecutionProfile::linear(1.0));
        g.add_pseudo_edge(TaskId(1), c).unwrap();
        let dot = g.to_dot();
        assert!(dot.contains("digraph G"));
        assert!(dot.contains("A (3.0)"));
        assert!(dot.contains("0 -> 1 [label=\"12.5\"]"));
        assert!(dot.contains("1 -> 2 [style=dashed]"));
    }
}

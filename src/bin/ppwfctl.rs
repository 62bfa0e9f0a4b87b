//! `ppwfctl` — a small operator CLI for ppwf repositories.
//!
//! ```text
//! ppwfctl demo <repo.bin>                       create the paper-fixture repository
//! ppwfctl gen <repo.bin> --specs N --execs M [--seed S]
//! ppwfctl info <repo.bin>                       statistics + top index terms
//! ppwfctl search <repo.bin> "<query>" [--root-only]
//! ppwfctl disclose <repo.bin> --spec I --exec J --level L
//! ppwfctl figures                               print the paper's figures
//! ```
//!
//! Argument parsing is hand-rolled (the workspace stays dependency-light);
//! every subcommand is a thin wrapper over library calls, so everything the
//! CLI does is equally available programmatically.

use ppwf::model::hierarchy::Prefix;
use ppwf::model::{fixtures, render};
use ppwf::privacy::enforce::disclose;
use ppwf::privacy::policy::{AccessLevel, Policy, Principal};
use ppwf::query::keyword::KeywordQuery;
use ppwf::query::privacy_exec::{filter_then_search, AccessMap};
use ppwf::repo::keyword_index::KeywordIndex;
use ppwf::repo::repository::{Repository, SpecId};
use ppwf::repo::stats::{repo_stats, top_terms};
use ppwf::workloads::genexec::generate_executions;
use ppwf::workloads::genspec::{generate_spec, SpecParams};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppwfctl: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ppwfctl demo <repo.bin>
  ppwfctl gen <repo.bin> --specs N --execs M [--seed S]
  ppwfctl info <repo.bin>
  ppwfctl search <repo.bin> \"<query>\" [--root-only]
  ppwfctl disclose <repo.bin> --spec I --exec J --level L
  ppwfctl figures";

/// Parsed flag set: `--key value` pairs plus boolean flags.
struct Flags {
    values: std::collections::HashMap<String, String>,
    bools: std::collections::HashSet<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut values = std::collections::HashMap::new();
    let mut bools = std::collections::HashSet::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                bools.insert(key.to_string());
                i += 1;
            }
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    Ok(Flags { values, bools })
}

impl Flags {
    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    fn required_usize(&self, key: &str) -> Result<usize, String> {
        self.values
            .get(key)
            .ok_or(format!("missing --{key}"))?
            .parse()
            .map_err(|_| format!("--{key} expects a number"))
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "demo" => cmd_demo(rest),
        "gen" => cmd_gen(rest),
        "info" => cmd_info(rest),
        "search" => cmd_search(rest),
        "disclose" => cmd_disclose(rest),
        "figures" => cmd_figures(),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn load_repo(path: &str) -> Result<Repository, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Repository::load(&bytes).map_err(|e| format!("cannot load {path}: {e}"))
}

fn save_repo(repo: &Repository, path: &str) -> Result<(), String> {
    std::fs::write(path, repo.save()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn cmd_demo(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("demo needs an output path")?;
    let mut repo = Repository::new();
    let (spec, m) = fixtures::disease_susceptibility();
    let mut policy = Policy::public();
    policy.protect_channel("disorders", AccessLevel(2));
    policy.protect_channel("SNPs", AccessLevel(1));
    policy.hide_pair(m.m13, m.m11, AccessLevel(3));
    let exec = fixtures::disease_susceptibility_execution(&spec);
    let id = repo.insert_spec(spec, policy).map_err(|e| e.to_string())?;
    repo.add_execution(id, exec).map_err(|e| e.to_string())?;
    save_repo(&repo, path)?;
    println!("wrote the disease-susceptibility demo repository to {path}");
    Ok(())
}

fn cmd_gen(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("gen needs an output path")?;
    let flags = parse_flags(&rest[1..])?;
    let specs = flags.required_usize("specs")?;
    let execs = flags.required_usize("execs")?;
    let seed = flags.usize_or("seed", 1)? as u64;
    let mut repo = Repository::new();
    for i in 0..specs as u64 {
        let spec = generate_spec(&SpecParams { seed: seed + i, ..SpecParams::default() });
        let runs = generate_executions(&spec, execs, seed + i);
        let id = repo.insert_spec(spec, Policy::public()).map_err(|e| e.to_string())?;
        for r in runs {
            repo.add_execution(id, r).map_err(|e| e.to_string())?;
        }
    }
    save_repo(&repo, path)?;
    println!("wrote {specs} specs × {execs} executions to {path}");
    Ok(())
}

fn cmd_info(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("info needs a repository path")?;
    let repo = load_repo(path)?;
    let s = repo_stats(&repo);
    println!("specifications : {}", s.specs);
    println!("executions     : {}", s.executions);
    println!("modules        : {}", s.modules);
    println!("edges          : {}", s.edges);
    println!("workflows      : {}", s.workflows);
    println!("max depth      : {}", s.max_depth);
    println!("data items     : {}", s.data_items);
    println!("policies       : {} specs, {} entries", s.specs_with_policies, s.policy_entries);
    let index = KeywordIndex::build(&repo);
    println!("index          : {} docs, {} terms", index.doc_count(), index.term_count());
    println!("top terms      :");
    for (t, n) in top_terms(&repo, 8) {
        println!("  {t:<20} {n}");
    }
    Ok(())
}

fn cmd_search(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("search needs a repository path")?;
    let query_text = rest.get(1).ok_or("search needs a query string")?;
    let flags = parse_flags(&rest[2..])?;
    let repo = load_repo(path)?;
    let index = KeywordIndex::build(&repo);
    let q = KeywordQuery::parse(query_text);
    let access: AccessMap = repo
        .entries()
        .map(|(sid, e)| {
            let p = if flags.bools.contains("root-only") {
                Prefix::root_only(&e.hierarchy)
            } else {
                Prefix::full(&e.hierarchy)
            };
            (sid, p)
        })
        .collect();
    let out = filter_then_search(&repo, &index, &q, &access);
    println!("{} hit(s) for {:?}", out.hits.len(), q.terms);
    for hit in &out.hits {
        let entry = repo.entry(hit.spec).unwrap();
        println!(
            "  spec {} `{}` — view over {:?}",
            hit.spec.0,
            entry.spec.name(),
            hit.prefix.workflows().map(|w| entry.spec.workflow(w).name.clone()).collect::<Vec<_>>()
        );
        for (term, m) in &hit.matched {
            println!(
                "    {term:?} → {} ({})",
                entry.spec.module(*m).code,
                entry.spec.module(*m).name
            );
        }
    }
    Ok(())
}

fn cmd_disclose(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("disclose needs a repository path")?;
    let flags = parse_flags(&rest[1..])?;
    let spec_i = flags.required_usize("spec")?;
    let exec_j = flags.required_usize("exec")?;
    let level = flags.required_usize("level")? as u8;
    let repo = load_repo(path)?;
    let entry = repo.entry(SpecId(spec_i as u32)).ok_or("no such spec")?;
    let exec = entry.executions.get(exec_j).ok_or("no such execution")?;
    let principal = Principal::new(
        format!("cli-level-{level}"),
        AccessLevel(level),
        Prefix::full(&entry.hierarchy),
    );
    let d = disclose(&entry.spec, &entry.hierarchy, exec, &entry.policy, &principal)
        .map_err(|e| e.to_string())?;
    println!(
        "disclosed spec {spec_i} exec {exec_j} at level {level}: {} nodes, {} masked, {} zoom steps",
        d.view.graph().node_count(),
        d.mask.masked.len(),
        d.zoom_steps
    );
    for n in d.view.graph().node_ids() {
        println!("  {}", d.view.node_label(&entry.spec, &d.execution, n));
    }
    Ok(())
}

fn cmd_figures() -> Result<(), String> {
    let (spec, _) = fixtures::disease_susceptibility();
    let h = ppwf::model::hierarchy::ExpansionHierarchy::of(&spec);
    let exec = fixtures::disease_susceptibility_execution(&spec);
    println!("{}", render::hierarchy_ascii(&spec, &h));
    println!("{}", render::proc_listing(&spec, &exec));
    println!();
    println!("{}", render::execution_listing(&spec, &exec));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_values_and_bools() {
        let args: Vec<String> =
            ["--specs", "4", "--root-only", "--seed", "9"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.required_usize("specs").unwrap(), 4);
        assert_eq!(f.usize_or("seed", 1).unwrap(), 9);
        assert_eq!(f.usize_or("execs", 2).unwrap(), 2);
        assert!(f.bools.contains("root-only"));
        assert!(f.required_usize("missing").is_err());
    }

    #[test]
    fn flags_reject_positional() {
        let args: Vec<String> = ["oops".to_string()].to_vec();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn demo_info_search_disclose_round_trip() {
        let dir = std::env::temp_dir().join(format!("ppwfctl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&["demo".into(), path_s.clone()]).unwrap();
        run(&["info".into(), path_s.clone()]).unwrap();
        run(&["search".into(), path_s.clone(), "Database, Disorder Risks".into()]).unwrap();
        run(&["search".into(), path_s.clone(), "reformat".into(), "--root-only".into()]).unwrap();
        run(&[
            "disclose".into(),
            path_s.clone(),
            "--spec".into(),
            "0".into(),
            "--exec".into(),
            "0".into(),
            "--level".into(),
            "1".into(),
        ])
        .unwrap();
        run(&["figures".into()]).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_creates_loadable_repo() {
        let dir = std::env::temp_dir().join(format!("ppwfctl-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.bin");
        let path_s = path.to_str().unwrap().to_string();
        run(&[
            "gen".into(),
            path_s.clone(),
            "--specs".into(),
            "3".into(),
            "--execs".into(),
            "2".into(),
        ])
        .unwrap();
        let repo = load_repo(&path_s).unwrap();
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.execution_count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}

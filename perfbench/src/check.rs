//! Independent reference answers the benchmark checks every run against:
//! an in-harness model of the namespace and a plain word count.

use std::collections::{BTreeMap, BTreeSet};

/// What the namespace should hold after a sequence of metadata ops:
/// directory path → names of the files directly inside it.
#[derive(Debug, Clone, Default)]
pub struct NamespaceModel {
    dirs: BTreeMap<String, BTreeSet<String>>,
}

fn split(path: &str) -> (&str, &str) {
    let cut = path.rfind('/').expect("absolute path");
    let dir = if cut == 0 { "/" } else { &path[..cut] };
    (dir, &path[cut + 1..])
}

impl NamespaceModel {
    /// Record a directory directly under the root.
    pub fn mkdir(&mut self, dir: &str) {
        self.dirs.entry(dir.to_string()).or_default();
        self.dirs
            .entry("/".to_string())
            .or_default()
            .insert(split(dir).1.to_string());
    }

    /// Record a created file.
    pub fn create(&mut self, path: &str) {
        let (dir, name) = split(path);
        self.dirs
            .get_mut(dir)
            .expect("files are created in known directories")
            .insert(name.to_string());
    }

    /// Record a removed file.
    pub fn rm(&mut self, path: &str) {
        let (dir, name) = split(path);
        if let Some(names) = self.dirs.get_mut(dir) {
            names.remove(name);
        }
    }

    /// Record a renamed file.
    pub fn rename(&mut self, old: &str, new: &str) {
        self.rm(old);
        self.create(new);
    }

    /// Does `path` name a file or directory?
    pub fn exists(&self, path: &str) -> bool {
        if path == "/" || self.dirs.contains_key(path) {
            return true;
        }
        let (dir, name) = split(path);
        self.dirs.get(dir).is_some_and(|names| names.contains(name))
    }

    /// Sorted entry names of a directory.
    pub fn ls(&self, dir: &str) -> Vec<String> {
        self.dirs
            .get(dir)
            .map(|names| names.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Files (not directories) in the namespace.
    pub fn file_count(&self) -> usize {
        self.dirs.values().map(BTreeSet::len).sum::<usize>() - self.dirs.len() + 1
    }

    /// Every path in the namespace, root and directories included.
    pub fn paths(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (dir, names) in &self.dirs {
            out.insert(dir.clone());
            for name in names {
                out.insert(if dir == "/" {
                    format!("/{name}")
                } else {
                    format!("{dir}/{name}")
                });
            }
        }
        out
    }

    /// Check an `exists` answer.
    pub fn check_exists(&self, path: &str, got: bool) -> Result<(), String> {
        let want = self.exists(path);
        (got == want)
            .then_some(())
            .ok_or_else(|| format!("exists({path}) = {got}, model says {want}"))
    }

    /// Check an `ls` answer (order-insensitive).
    pub fn check_ls(&self, dir: &str, got: &[String]) -> Result<(), String> {
        let mut got = got.to_vec();
        got.sort();
        let want = self.ls(dir);
        (got == want).then_some(()).ok_or_else(|| {
            format!(
                "ls({dir}) returned {} names, model holds {}",
                got.len(),
                want.len()
            )
        })
    }

    /// Check a store's full path set against the model.
    pub fn check_paths(&self, got: &BTreeSet<String>) -> Result<(), String> {
        let want = self.paths();
        if *got == want {
            return Ok(());
        }
        let extra = got.difference(&want).next();
        let missing = want.difference(got).next();
        Err(format!(
            "namespace holds {} paths, model {} (first extra {extra:?}, first missing {missing:?})",
            got.len(),
            want.len()
        ))
    }
}

/// Check a job's word counts against the reference count of its input.
pub fn check_wordcount(
    want: &BTreeMap<String, i64>,
    got: &BTreeMap<String, i64>,
) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let bad = want
        .iter()
        .find(|(w, c)| got.get(*w) != Some(*c))
        .map(|(w, c)| format!("`{w}`: want {c}, got {:?}", got.get(w)))
        .or_else(|| {
            got.keys()
                .find(|w| !want.contains_key(*w))
                .map(|w| format!("unexpected word `{w}`"))
        })
        .unwrap_or_default();
    Err(format!("word count mismatch: {bad}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NamespaceModel {
        let mut m = NamespaceModel::default();
        m.mkdir("/d0");
        m.mkdir("/d1");
        m.create("/d0/a");
        m.create("/d0/b");
        m.rename("/d0/b", "/d1/c");
        m.rm("/d0/a");
        m.create("/d1/e");
        m
    }

    #[test]
    fn model_tracks_ops() {
        let m = model();
        assert!(m.exists("/d1/c") && !m.exists("/d0/b") && !m.exists("/d0/a"));
        assert_eq!(m.ls("/d1"), vec!["c".to_string(), "e".to_string()]);
        assert_eq!(m.ls("/"), vec!["d0".to_string(), "d1".to_string()]);
        assert_eq!(m.file_count(), 2);
        let paths: Vec<String> = m.paths().into_iter().collect();
        assert_eq!(paths, ["/", "/d0", "/d1", "/d1/c", "/d1/e"]);
    }

    #[test]
    fn model_rejects_seeded_wrong_answers() {
        let m = model();
        assert!(m.check_exists("/d1/c", true).is_ok());
        assert!(m.check_exists("/d0/b", true).is_err());
        assert!(m.check_ls("/d1", &["e".into(), "c".into()]).is_ok());
        assert!(m.check_ls("/d1", &["c".into()]).is_err());
        let mut paths = m.paths();
        assert!(m.check_paths(&paths).is_ok());
        paths.insert("/d0/ghost".into());
        assert!(m.check_paths(&paths).is_err());
    }

    #[test]
    fn wordcount_check_rejects_seeded_wrong_answers() {
        let text = boom_mr::synth_text(7, 500);
        let want = boom_mr::reference_wordcount(&text);
        assert!(check_wordcount(&want, &want.clone()).is_ok());
        let mut off_by_one = want.clone();
        *off_by_one.get_mut("the").unwrap() += 1;
        assert!(check_wordcount(&want, &off_by_one).is_err());
        let mut missing = want.clone();
        missing.remove("data");
        assert!(check_wordcount(&want, &missing).is_err());
        let mut extra = want.clone();
        extra.insert("bogus".into(), 1);
        assert!(check_wordcount(&want, &extra).is_err());
    }
}

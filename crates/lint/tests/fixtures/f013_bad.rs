//! F013 fixture: fixed paths under the shared temp directory.

fn fixed() -> std::path::PathBuf {
    std::env::temp_dir().join("fume-fixed-dir")
}

fn pid_suffixed() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fume-dir-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn writes_a_fixed_file() {
        let path = std::env::temp_dir().join("fume-report.json");
        std::fs::write(&path, "{}").unwrap();
    }
}

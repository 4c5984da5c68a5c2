//! Command-line arguments: `--name value` pairs and bare `--flags`.

/// Parsed arguments of one invocation.
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments after the subcommand at `skip`.
    pub fn from_env(skip: usize) -> Args {
        Args(std::env::args().skip(skip).collect())
    }

    /// The value following `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// Whether the bare flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// `--name` parsed as a number, `default` when absent.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }
}

//! Why a run stops early, and the output checks that stop it.

use std::fmt;

use feather_arch::tensor::Tensor4;

/// A run that cannot produce a trustworthy result. The process exits with
/// [`Fail::code`] and prints no result line.
#[derive(Debug)]
pub enum Fail {
    /// An output differed from its reference, or a deterministic count
    /// drifted: exit code 1.
    Mismatch(String),
    /// Bad arguments or a refused environment: exit code 2.
    Usage(String),
    /// The program under test returned an error, or the run could not
    /// measure what it must: exit code 3.
    Broken(String),
}

impl Fail {
    /// The process exit code for this failure.
    pub fn code(&self) -> i32 {
        match self {
            Fail::Mismatch(_) => 1,
            Fail::Usage(_) => 2,
            Fail::Broken(_) => 3,
        }
    }

    /// Wraps an error the program returned during `what`.
    pub fn broken(what: &str, err: impl fmt::Display) -> Fail {
        Fail::Broken(format!("{what}: {err}"))
    }
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fail::Mismatch(m) => write!(f, "output mismatch: {m}"),
            Fail::Usage(m) => write!(f, "usage: {m}"),
            Fail::Broken(m) => write!(f, "run failed: {m}"),
        }
    }
}

/// Fails unless `got` equals `want`.
pub fn same_output(what: &str, got: &Tensor4<i32>, want: &Tensor4<i32>) -> Result<(), Fail> {
    if got == want {
        return Ok(());
    }
    let first = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .position(|(g, w)| g != w);
    Err(Fail::Mismatch(format!(
        "{what}: shape {:?} vs reference {:?}, first differing element {first:?}",
        got.shape(),
        want.shape()
    )))
}

/// Fails unless a deterministic value equals its expected value.
pub fn same_count<T: PartialEq + fmt::Debug>(what: &str, got: T, want: T) -> Result<(), Fail> {
    if got == want {
        Ok(())
    } else {
        Err(Fail::Mismatch(format!(
            "{what}: got {got:?}, expected {want:?}"
        )))
    }
}

/// Flips one element of a reference output: `--corrupt-golden` uses it to
/// prove that a mismatch stops the run.
pub fn corrupt(golden: &mut Tensor4<i32>) {
    let v = golden.get(0, 0, 0, 0);
    golden.set(0, 0, 0, 0, v.wrapping_add(1));
}

//! Thin entry point for the `sweep` CLI; all logic lives in the library.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sweep_cli::run_with_status(&args) {
        Ok((report, status)) => {
            let status = write_report(&mut io::stdout().lock(), &report, status);
            if status != 0 {
                std::process::exit(status);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `report` to `out` and returns the exit status: the command's
/// `status`, also when the reader has gone away (a broken pipe, as in
/// `sweep … | head -1`), and 1 after any other write error, which is
/// reported on stderr.
fn write_report(out: &mut impl Write, report: &str, status: i32) -> i32 {
    match out.write_all(report.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => status,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => status,
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose every write and flush fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_written_report_keeps_the_command_status() {
        let mut out = Vec::new();
        assert_eq!(write_report(&mut out, "report\n", 2), 2);
        assert_eq!(out, b"report\n");
    }

    #[test]
    fn a_closed_reader_keeps_the_command_status() {
        let mut out = Failing(io::ErrorKind::BrokenPipe);
        assert_eq!(write_report(&mut out, "report\n", 0), 0);
        assert_eq!(write_report(&mut out, "report\n", 2), 2);
    }

    #[test]
    fn any_other_write_error_exits_1() {
        let mut out = Failing(io::ErrorKind::PermissionDenied);
        assert_eq!(write_report(&mut out, "report\n", 0), 1);
    }
}

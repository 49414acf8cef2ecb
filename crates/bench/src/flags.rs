//! The one command-line flag scanner of the bench binaries: valued flags in
//! both the `--flag v` and the `--flag=v` spelling, bare switches, and the
//! rejection of anything a binary does not declare.

use rsin_core::ConfigError;

/// Extracts `--flag v` / `--flag=v`; `Ok(None)` when absent, a typed error
/// naming `flag` when the flag is present without a value.
fn value(args: &[String], flag: &'static str) -> Result<Option<String>, ConfigError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(ConfigError::Parse {
                    input: flag.into(),
                    expected: "a value after the flag",
                }),
            };
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Parses `flag`'s value with `parse`, which returns `None` for a value
/// out of range or of the wrong shape; `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// [`ConfigError::Parse`] naming `flag` when no value follows it, and
/// with input `"<flag> <value>"` and `expected` when `parse` rejects the
/// value.
pub fn parsed<T>(
    args: &[String],
    flag: &'static str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    value(args, flag)?
        .map(|v| {
            parse(&v).ok_or_else(|| ConfigError::Parse {
                input: format!("{flag} {v}"),
                expected,
            })
        })
        .transpose()
}

/// [`parsed`] for a comma-separated list: every item, trimmed, must pass
/// `parse`, so an empty item (and an empty list) is rejected whenever
/// `parse("")` is.
///
/// # Errors
///
/// As [`parsed`], with the whole list as the value.
pub fn parsed_list<T>(
    args: &[String],
    flag: &'static str,
    expected: &'static str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<Vec<T>>, ConfigError> {
    parsed(args, flag, expected, |v| {
        v.split(',').map(|item| parse(item.trim())).collect()
    })
}

/// Whether the bare switch `flag` is present.
#[must_use]
pub fn switch(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Rejects the first argument that is neither one of the `valued` flags
/// (in either spelling, with the value following it), nor one of the
/// `switches`. `expected` lists the accepted flags for the error message.
///
/// # Errors
///
/// [`ConfigError::Parse`] whose input is the undeclared argument.
pub fn reject_unknown(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
    expected: &'static str,
) -> Result<(), ConfigError> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            it.next();
        } else if !switches.contains(&a.as_str())
            && !valued
                .iter()
                .any(|f| a.strip_prefix(f).is_some_and(|v| v.starts_with('=')))
        {
            return Err(ConfigError::Parse {
                input: a.clone(),
                expected,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn values_parse_in_both_spellings() {
        let a = args(&["--jobs", "4", "--rho=0.5", "--full"]);
        assert_eq!(value(&a, "--jobs"), Ok(Some("4".into())));
        assert_eq!(value(&a, "--rho"), Ok(Some("0.5".into())));
        assert_eq!(value(&a, "--p"), Ok(None));
        assert!(switch(&a, "--full"));
        assert!(!switch(&a, "--resume"));
        let err = value(&args(&["--jobs"]), "--jobs").expect_err("missing value");
        assert!(err.to_string().contains("--jobs"));
    }

    #[test]
    fn parsed_values_and_lists_name_the_flag_and_value() {
        let positive = |v: &str| v.parse::<u32>().ok().filter(|&n| n >= 1);
        let a = args(&["--jobs=4", "--p", "8, 16"]);
        assert_eq!(parsed(&a, "--jobs", "x", positive), Ok(Some(4)));
        assert_eq!(parsed_list(&a, "--p", "x", positive), Ok(Some(vec![8, 16])));
        assert_eq!(parsed(&a, "--rho", "x", positive), Ok(None));
        for (line, input) in [
            (&["--jobs", "0"][..], "--jobs 0"),
            (&["--jobs=zero"], "--jobs zero"),
            (&["--jobs", ""], "--jobs "),
        ] {
            let err = parsed(&args(line), "--jobs", "x", positive).expect_err("rejected");
            assert_eq!(
                err.to_string(),
                format!("cannot parse {input:?}: expected x")
            );
        }
        for bad in ["", "8,", "8,,16", "8,zero"] {
            let err =
                parsed_list(&args(&["--p", bad]), "--p", "x", positive).expect_err("rejected");
            assert_eq!(
                err.to_string(),
                format!("cannot parse \"--p {bad}\": expected x")
            );
        }
    }

    #[test]
    fn undeclared_arguments_are_rejected() {
        let (valued, switches) = (["--jobs", "--p"], ["--full"]);
        let ok = args(&["--jobs", "--full", "--p=8", "--full"]);
        assert_eq!(reject_unknown(&ok, &valued, &switches, "x"), Ok(()));
        for bad in [
            &["--thread", "4"][..],
            &["--full=1"],
            &["stray"],
            &["--pp=3"],
        ] {
            let err = reject_unknown(&args(bad), &valued, &switches, "x").expect_err("undeclared");
            assert_eq!(
                err.to_string(),
                format!("cannot parse {:?}: expected x", bad[0])
            );
        }
    }
}

//! The experiment registry names commands that exist: every `nmcache …`
//! command parses, and every `--example` is a file under `examples/`.

use nmcache::core::experiments::ALL;
use std::path::Path;

#[test]
fn every_registry_command_parses_or_names_an_example() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    for e in &ALL {
        let words: Vec<&str> = e.command.split_whitespace().collect();
        match words.as_slice() {
            ["nmcache", args @ ..] => {
                let parsed = nmcache::cli::parse(args.iter().map(|a| (*a).to_owned()));
                assert!(
                    parsed.is_ok(),
                    "{}: `{}` does not parse: {parsed:?}",
                    e.id,
                    e.command
                );
            }
            ["cargo", "run", "--release", "--example", name] => {
                let path = examples.join(format!("{name}.rs"));
                assert!(path.exists(), "{}: missing {}", e.id, path.display());
            }
            _ => panic!("{}: unrecognised command `{}`", e.id, e.command),
        }
    }
}

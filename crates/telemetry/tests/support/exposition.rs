//! Prometheus text-exposition validity check, shared by every test that
//! sees exposition text: the registry's own tests here, the CLI's `.prom`
//! export tests and the live `/metrics` scrape test include this file by
//! `#[path]` (it depends on `std` only).

/// Checks `text` against the text-format rules this workspace relies on:
///
/// * every `# TYPE` / `# HELP` names a bare metric family (no label set);
/// * a family is declared once, with a known type, before its samples;
/// * every other line is `name[{label="value",..}] <float>`, and belongs to
///   the family declared last (`_count` / `_sum` / `_bucket` suffixes are
///   samples of a `summary` / `histogram` family);
/// * families appear in sorted order.
pub fn check_exposition(text: &str) -> Result<(), String> {
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let fail = |what: &str| Err(format!("line {}: {what}: `{line}`", n + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.trim_start().splitn(3, ' ');
            let keyword = words.next().unwrap_or("");
            if keyword != "TYPE" && keyword != "HELP" {
                continue;
            }
            let family = words.next().unwrap_or("");
            if !is_name(family) {
                return fail("TYPE/HELP must name a bare metric family");
            }
            let seen = if keyword == "TYPE" {
                typed.iter().any(|(f, _)| f == family)
            } else {
                helped.iter().any(|f| f == family)
            };
            if seen {
                return fail("family declared twice");
            }
            if keyword == "HELP" {
                helped.push(family.to_string());
                continue;
            }
            let kind = words.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return fail("unknown metric type");
            }
            typed.push((family.to_string(), kind.to_string()));
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return fail("sample is not `name[{labels}] value`");
        };
        if value.parse::<f64>().is_err() {
            return fail("sample value is not a float");
        }
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return fail("unterminated label set");
                };
                let well_formed = labels.split(',').all(|pair| {
                    pair.split_once('=').is_some_and(|(k, v)| {
                        is_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
                    })
                });
                if !well_formed {
                    return fail("malformed label set");
                }
                name
            }
        };
        if !is_name(name) {
            return fail("malformed metric name");
        }
        let Some((family, kind)) = typed.last() else {
            return fail("sample before any TYPE line");
        };
        let suffix = name.strip_prefix(family.as_str()).unwrap_or("?");
        let belongs = suffix.is_empty()
            || (matches!(kind.as_str(), "summary" | "histogram")
                && matches!(suffix, "_count" | "_sum" | "_bucket"));
        if !belongs {
            return fail("sample does not belong to the family declared last");
        }
    }
    if let Some(pair) = typed.windows(2).find(|w| w[0].0 >= w[1].0) {
        return Err(format!(
            "families out of order: `{}` before `{}`",
            pair[0].0, pair[1].0
        ));
    }
    Ok(())
}

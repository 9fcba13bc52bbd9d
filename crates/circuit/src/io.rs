//! A plain-text structural netlist format (writer + parser).
//!
//! One statement per line:
//!
//! ```text
//! # comment
//! input n0
//! gate NAND2_X1 n5 = n0 n1 @0.25
//! output n5
//! ```
//!
//! `gate CELLNAME out = in1 in2 ... [@activity]` — the cell name must exist
//! in the library the netlist is parsed against. Net names are `n<digits>`
//! where the digits are the dense [`crate::netlist::NetId`] index; the
//! format round-trips exactly.

use crate::cell::Library;
use crate::error::CircuitError;
use crate::netlist::{NetId, Netlist};
use std::fmt::Write as _;

/// Serializes a netlist to the text format.
#[must_use]
pub fn write_netlist(netlist: &Netlist, lib: &Library) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# lori netlist: {} instances",
        netlist.instance_count()
    );
    for &ni in netlist.primary_inputs() {
        let _ = writeln!(out, "input n{}", ni.0);
    }
    // Instances in topological-friendly creation order (instance order is
    // creation order, and outputs are allocated after inputs).
    for inst in netlist.instances() {
        let cell = lib.cell(inst.cell);
        let _ = write!(out, "gate {} n{} =", cell.name, inst.output.0);
        for &i in &inst.inputs {
            let _ = write!(out, " n{}", i.0);
        }
        let _ = writeln!(out, " @{}", inst.activity);
    }
    for &no in netlist.primary_outputs() {
        let _ = writeln!(out, "output n{}", no.0);
    }
    out
}

/// Parses the text format against a library.
///
/// # Errors
///
/// Returns [`CircuitError::UnknownCell`] for unknown cell names or
/// malformed statements, and [`CircuitError::DanglingReference`] for net
/// references that never get defined.
pub fn parse_netlist(text: &str, lib: &Library) -> Result<Netlist, CircuitError> {
    let mut netlist = Netlist::new();
    // Map from file net index -> actual NetId (they coincide when the file
    // was produced by write_netlist, but the parser tolerates any order of
    // definition as long as uses follow definitions).
    let mut net_map: std::collections::HashMap<usize, NetId> = std::collections::HashMap::new();
    let parse_net = |token: &str| -> Result<usize, CircuitError> {
        token
            .strip_prefix('n')
            .and_then(|d| d.parse::<usize>().ok())
            .ok_or_else(|| CircuitError::UnknownCell(format!("bad net token {token}")))
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("input") => {
                let name = tokens.next().ok_or_else(|| {
                    CircuitError::UnknownCell(format!("line {lineno}: missing input net"))
                })?;
                let file_id = parse_net(name)?;
                let id = netlist.add_input();
                net_map.insert(file_id, id);
            }
            Some("gate") => {
                let cell_name = tokens.next().ok_or_else(|| {
                    CircuitError::UnknownCell(format!("line {lineno}: missing cell name"))
                })?;
                let cell = lib
                    .find(cell_name)
                    .ok_or_else(|| CircuitError::UnknownCell(cell_name.to_owned()))?;
                let out_tok = tokens.next().ok_or_else(|| {
                    CircuitError::UnknownCell(format!("line {lineno}: missing output net"))
                })?;
                let out_file_id = parse_net(out_tok)?;
                match tokens.next() {
                    Some("=") => {}
                    _ => {
                        return Err(CircuitError::UnknownCell(format!(
                            "line {lineno}: expected '='"
                        )))
                    }
                }
                let mut inputs = Vec::new();
                let mut activity = 0.15;
                for tok in tokens {
                    if let Some(a) = tok.strip_prefix('@') {
                        activity = a.parse::<f64>().map_err(|_| {
                            CircuitError::UnknownCell(format!("line {lineno}: bad activity {tok}"))
                        })?;
                    } else {
                        let file_id = parse_net(tok)?;
                        let net = net_map.get(&file_id).copied().ok_or(
                            CircuitError::DanglingReference {
                                what: "net",
                                index: file_id,
                            },
                        )?;
                        inputs.push(net);
                    }
                }
                let out = netlist.add_gate_with_activity(cell, &inputs, activity);
                net_map.insert(out_file_id, out);
            }
            Some("output") => {
                let name = tokens.next().ok_or_else(|| {
                    CircuitError::UnknownCell(format!("line {lineno}: missing output net"))
                })?;
                let file_id = parse_net(name)?;
                let net =
                    net_map
                        .get(&file_id)
                        .copied()
                        .ok_or(CircuitError::DanglingReference {
                            what: "output net",
                            index: file_id,
                        })?;
                netlist.mark_output(net);
            }
            Some(other) => {
                return Err(CircuitError::UnknownCell(format!(
                    "line {lineno}: unknown statement '{other}'"
                )))
            }
            None => {}
        }
    }
    netlist.validate(lib)?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::default_library as lib;
    use crate::netlist::{random_logic, ripple_carry_adder};

    #[test]
    fn roundtrip_preserves_structure_and_function() {
        let original = ripple_carry_adder(lib(), 4).unwrap();
        let text = write_netlist(&original, lib());
        let parsed = parse_netlist(&text, lib()).unwrap();
        assert_eq!(parsed.instance_count(), original.instance_count());
        assert_eq!(
            parsed.primary_inputs().len(),
            original.primary_inputs().len()
        );
        assert_eq!(
            parsed.primary_outputs().len(),
            original.primary_outputs().len()
        );
        // Logic function must be identical.
        for trial in 0..16u64 {
            let inputs: Vec<bool> = (0..9).map(|b| (trial >> b) & 1 == 1).collect();
            assert_eq!(
                original.evaluate(lib(), &inputs).unwrap(),
                parsed.evaluate(lib(), &inputs).unwrap(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_activity() {
        let original = random_logic(lib(), 8, 60, 3).unwrap();
        let text = write_netlist(&original, lib());
        let parsed = parse_netlist(&text, lib()).unwrap();
        for (a, b) in original.instances().iter().zip(parsed.instances()) {
            assert!((a.activity - b.activity).abs() < 1e-9);
            assert_eq!(a.cell, b.cell);
        }
    }

    #[test]
    fn parser_rejects_unknown_cell() {
        let text = "input n0\ngate FROB_X1 n1 = n0\noutput n1\n";
        assert!(matches!(
            parse_netlist(text, lib()),
            Err(CircuitError::UnknownCell(_))
        ));
    }

    #[test]
    fn parser_rejects_use_before_definition() {
        let text = "input n0\ngate INV_X1 n1 = n99\noutput n1\n";
        assert!(matches!(
            parse_netlist(text, lib()),
            Err(CircuitError::DanglingReference { .. })
        ));
    }

    #[test]
    fn parser_rejects_malformed_statements() {
        assert!(parse_netlist("bogus n0\n", lib()).is_err());
        assert!(parse_netlist("gate INV_X1 n1 n0\n", lib()).is_err());
        assert!(parse_netlist("input\n", lib()).is_err());
        assert!(parse_netlist("gate INV_X1 n1 = n0 @zork\ninput n0\n", lib()).is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\ninput n0\n# mid\ngate INV_X1 n1 = n0 @0.2\noutput n1\n";
        let nl = parse_netlist(text, lib()).unwrap();
        assert_eq!(nl.instance_count(), 1);
        assert!((nl.instances()[0].activity - 0.2).abs() < 1e-12);
    }

    #[test]
    fn parser_rejects_bad_arity_via_validate() {
        // NAND2 with one input parses but fails netlist validation.
        let text = "input n0\ngate NAND2_X1 n1 = n0\noutput n1\n";
        assert!(parse_netlist(text, lib()).is_err());
    }
}

"""Table and CSV renderings of a job report.

Both read the payload that cli builds for the JSON report.  cli imports
this module only for a job whose format is table or csv, so a JSON job
compiles neither renderer.
"""

from __future__ import annotations


def _certificate(value) -> str:
    """A Lie certificate's value: a flag or name in lower case, a record
    (the dense_subalgebra closure) as its fields, lists joined."""
    if isinstance(value, dict):
        return "(%s)" % "; ".join(
            "%s: %s" % (key, ", ".join(v) if isinstance(v, list) else v)
            for key, v in value.items())
    return str(value).lower()


def render_table(payload: dict) -> str:
    """The report as aligned text lines, ending with its exit code."""
    lines = ["mode: %s" % payload["mode"]]
    if payload["mode"] != "witness":
        if payload["betti"] is None:
            lines.append("betti: not computed, d.d != 0")
        else:
            lines.append(
                "betti: %s" % " ".join(str(b) for b in payload["betti"])
            )
            lines.append("degree | betti | generators")
            for k, (b, gens) in enumerate(
                zip(payload["betti"], payload["generators"])
            ):
                lines.append("%6d | %5d | %s" % (k, b, ", ".join(gens)))
        certs = payload["certificates"]
        if payload["mode"] == "torus":
            lines.append(
                "transverse frame: %s"
                % ", ".join(certs["transverse_coordinates"])
            )
            lines.append(
                "audited nonzero modes: %d (%s)"
                % (
                    payload["audited_modes"],
                    "all acyclic" if certs["all_modes_acyclic"]
                    else "ACYCLICITY FAILED",
                )
            )
            if "cross_check_ce" in certs:
                lines.append(
                    "cross-check against cochain pipeline: %s"
                    % ("agree" if certs["cross_check_ce"] else "MISMATCH")
                )
            if "discrete" in certs:
                discrete = certs["discrete"]
                lines.append(
                    "discrete: invariant basic betti %s, quotient betti %s: %s"
                    % (" ".join(map(str, discrete["invariant_basic_betti"])),
                       " ".join(map(str, discrete["quotient_betti"])),
                       discrete["conclusion"]))
            lines.append(certs["normalization"])
        elif payload["mode"] == "automorphism":
            automorphism = certs["automorphism"]
            # a foliated job tests the orders on the induced map A-bar
            induced = automorphism.get("induced_map")
            tested = induced or automorphism
            on = " of the induced map A-bar on %s" % ", ".join(
                induced["coordinates"]) if induced else ""
            order = tested.get("finite_order")
            lines.append("automorphism: det %d, " % automorphism[
                "determinant"] + (
                "finite order %d%s, invariant forms averaged over Z/%d"
                % (order, on, order) if order else
                "no cyclotomic factor Phi_m of the characteristic "
                "polynomial%s for m = %s" % (on, " ".join(map(
                    str, tested["cyclotomic_factors_ruled_out"])))))
        else:
            lines.append("certificates: %s" % " ".join(
                "%s=%s" % (name, _certificate(value))
                for name, value in certs.items() if value is not None))
    else:
        certs = payload["certificates"]
        lines.append(
            "levels: %d..%d, derivative orders <= %d, samples %d"
            % (
                certs["forced_levels"][0][0],
                certs["forced_levels"][-1][0],
                len(certs["profile_constants"]) - 1,
                certs["samples_per_interval"],
            )
        )
        lines.append("family | level | order | measured | bound")
        for r in certs["sup_bounds"]:
            lines.append(
                "%6s | %5d | %5d | %.9e | %.9e"
                % (r["family"], r["level"], r["order"], r["measured"],
                   r["bound"])
            )
        lines.append(
            "monotone violations: %s"
            % (
                "; ".join(
                    "%s m=%d k=%d->%d ratio=%.6f"
                    % (v["family"], v["order"], v["level_from"],
                       v["level_to"], v["ratio"])
                    for v in certs["monotone_violations"]
                )
                or "none"
            )
        )
        lines.append(
            "forced levels: %s"
            % " ".join("%d->%d" % (k, lvl) for k, lvl in certs["forced_levels"])
        )
        lines.append("lift obstruction: %s" % str(certs["lift_obstruction"]).lower())
        deg1 = certs["degree_one"]
        lines.append(
            "degree-1: quotient dim %d, invariant dim %d (%s), %s"
            % (
                deg1["quotient_degree1_dim"],
                deg1["invariant_basic_degree1_dim"],
                deg1["invariant_witness"],
                deg1["conclusion"],
            )
        )
    lines.append("exit: %d" % payload["exit"])
    return "\n".join(lines) + "\n"


def render_csv(payload: dict) -> str:
    """The report's Betti rows, or its witness sup rows, as CSV."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["mode"] != "witness":
        writer.writerow(["degree", "betti", "generators"])
        for k, (b, gens) in enumerate(
            zip(payload["betti"] or (), payload["generators"] or ())
        ):
            writer.writerow([k, b, "; ".join(gens)])
    else:
        writer.writerow(["family", "level", "order", "measured", "bound"])
        for r in payload["certificates"]["sup_bounds"]:
            writer.writerow(
                [r["family"], r["level"], r["order"],
                 repr(r["measured"]), repr(r["bound"])]
            )
    return buf.getvalue()

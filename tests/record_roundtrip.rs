//! Export/parse round trips for `polycanary_core::record`: every JSON
//! export the harness produces must be readable back by the workspace's
//! own parser, with per-seed runs and summary fields intact.  (Before the
//! parser existed, exports could only be *written* — nothing in the
//! workspace could verify one.)

use polycanary::attacks::{AttackKind, Campaign, StopRule};
use polycanary::core::record::{
    records_from_json, records_to_json, Envelope, Record, Value, MAX_JSON_DEPTH,
};
use polycanary::core::SchemeKind;

#[test]
fn campaign_report_survives_a_json_round_trip() {
    let report = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0x40BD, 5)
        .with_stop_rule(StopRule::sprt())
        .run();
    let rec = report.record();
    let parsed = Record::from_json(&rec.to_json()).expect("campaign export parses");

    // Summary fields survive with their values.
    assert_eq!(parsed.get("attack").and_then(Value::as_str), Some("byte-by-byte"));
    assert_eq!(parsed.get("scheme").and_then(Value::as_str), Some("SSP"));
    assert_eq!(parsed.get("stop_rule").and_then(Value::as_str), Some("sprt"));
    assert_eq!(parsed.get("verdict").and_then(Value::as_str), Some(report.verdict().label()));
    assert_eq!(parsed.get("configured_seeds").and_then(Value::as_u64), Some(5));
    assert_eq!(parsed.get("completed_seeds").and_then(Value::as_u64), Some(report.campaigns()));
    assert_eq!(parsed.get("stopped_early").and_then(Value::as_bool), Some(true));
    assert_eq!(parsed.get("successes").and_then(Value::as_u64), Some(report.successes()));
    assert_eq!(parsed.get("total_requests").and_then(Value::as_u64), Some(report.total_requests()));
    // Float fields compare numerically (whole-valued floats re-parse as
    // integers — the documented JSON re-typing).
    assert_eq!(parsed.get("success_rate").and_then(Value::as_f64), Some(report.success_rate()));

    // Every per-seed run survives field by field.
    let Some(Value::List(runs)) = parsed.get("runs") else {
        panic!("parsed record must nest the per-seed runs: {parsed:?}")
    };
    assert_eq!(runs.len() as u64, report.campaigns());
    for (parsed_run, run) in runs.iter().zip(&report.runs) {
        let Value::Record(parsed_run) = parsed_run else { panic!("runs are records") };
        assert_eq!(parsed_run.get("seed").and_then(Value::as_u64), Some(run.seed));
        assert_eq!(parsed_run.get("success").and_then(Value::as_bool), Some(run.result.success));
        assert_eq!(parsed_run.get("requests").and_then(Value::as_u64), Some(run.result.trials));
    }
}

#[test]
fn effectiveness_row_array_survives_a_json_round_trip() {
    use polycanary_bench::experiments::{run_effectiveness, EffectivenessRow, ExperimentCtx};

    let ctx = ExperimentCtx::new(3).with_byte_budget(3_000).with_campaign_seeds(4);
    let rows = run_effectiveness(&ctx, &[SchemeKind::Ssp, SchemeKind::Pssp]);
    let records: Vec<Record> = rows.iter().map(EffectivenessRow::record).collect();
    let parsed = records_from_json(&records_to_json(&records)).expect("array export parses");
    assert_eq!(parsed.len(), 2);
    for (parsed_row, row) in parsed.iter().zip(&rows) {
        assert_eq!(parsed_row.get("scheme").and_then(Value::as_str), Some(row.scheme.name()));
        let Some(Value::Record(byte)) = parsed_row.get("byte_by_byte") else {
            panic!("nested campaign record")
        };
        assert_eq!(
            byte.get("successes").and_then(Value::as_u64),
            Some(row.byte_by_byte.successes())
        );
        let Some(Value::List(runs)) = byte.get("runs") else { panic!("per-seed runs") };
        assert_eq!(runs.len(), 4);
    }
}

#[test]
fn parsed_export_equals_reserialized_export() {
    // Writer → parser → writer is a fixed point: re-serializing the parsed
    // form reproduces the original JSON byte for byte (field order is
    // preserved, and the victim campaign contains no non-finite floats).
    let report = Campaign::new(AttackKind::Exhaustive { budget: 50 }, SchemeKind::Pssp)
        .with_seed_range(7, 3)
        .run();
    let json = report.record().to_json();
    let reparsed = Record::from_json(&json).expect("parses");
    assert_eq!(reparsed.to_json(), json);
}

#[test]
fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
    let deep = "[".repeat(200_000);
    let err = Value::from_json(&deep).expect_err("200,000 open brackets must not parse");
    assert!(err.message.contains("nesting"), "{err}");
    assert_eq!(err.offset, MAX_JSON_DEPTH);

    let deep_object = "{\"a\":".repeat(200_000);
    assert!(Record::from_json(&deep_object).is_err());
    assert!(records_from_json(&format!("[{deep_object}")).is_err());
    assert!(Envelope::from_json(&deep_object).is_err());
}

#[test]
fn nesting_up_to_the_limit_still_parses() {
    let at_limit = format!("{}{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
    assert!(Value::from_json(&at_limit).is_ok());
    let over = format!("[{at_limit}]");
    assert!(Value::from_json(&over).is_err());
}

#[test]
fn bad_unicode_escapes_name_their_fault() {
    let message = |json: &str| Value::from_json(json).expect_err(json).message;
    // Four bytes follow `\u`, but they are not hex digits.
    assert_eq!(message(r#""\uZZZZ""#), "invalid \\u escape");
    assert_eq!(message(r#""\u12G4""#), "invalid \\u escape");
    assert_eq!(message(r#""\uD800\uZZZZ""#), "invalid \\u escape");
    // Fewer than four bytes are left after `\u`.
    assert_eq!(message(r#""\u12"#), "truncated \\u escape");
    assert_eq!(message(r#""\uD800\u1"#), "truncated \\u escape");
    assert_eq!(Value::from_json(r#""\u00e9""#).expect("valid escape"), Value::Str("é".into()));
}

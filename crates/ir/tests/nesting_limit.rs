//! The parser's nesting budget: a program nested to the limit survives the
//! whole frontend on a test thread's 2 MiB stack, one level more is a parse
//! error, and text that used to overflow the stack (aborting the process)
//! is rejected the same way.

use acrobat_analysis::{analyze, AnalysisOptions};
use acrobat_ir::{parse_module, typeck, MAX_NESTING};

fn main_with(params: &str, ret: &str, body: &str) -> String {
    format!("def @main({params}) -> {ret} {{ {body} }}")
}

/// `calls` nested `relu(` around `%x`: the body block is one level, its
/// result expression a second, each call argument one more.
fn relu_chain(calls: usize) -> String {
    let body = format!("{}%x{}", "relu(".repeat(calls), ")".repeat(calls));
    main_with("%x: Tensor[(1, 2)]", "Tensor[(1, 2)]", &body)
}

fn assert_nesting_error(src: &str, what: &str) {
    let err = parse_module(src).expect_err(what).to_string();
    assert!(err.contains("nest"), "{what}: {err}");
}

#[test]
fn nesting_to_the_limit_passes_the_frontend_and_one_more_is_an_error() {
    let module = parse_module(&relu_chain(MAX_NESTING - 2)).expect("nested to the limit");
    let module = typeck::check_module(module).expect("type checks");
    drop(analyze(module, AnalysisOptions::default()).expect("analyzes"));
    assert_nesting_error(&relu_chain(MAX_NESTING - 1), "one level past the limit");
}

#[test]
fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
    let tensor = "Tensor[(1, 2)]";
    let parens = format!("{}%x{}", "(".repeat(3_000), ")".repeat(3_000));
    assert_nesting_error(&main_with("%x: Tensor[(1, 2)]", tensor, &parens), "parentheses");
    assert_nesting_error(&relu_chain(10_000), "calls");
    let negs = format!("{}%x", "-".repeat(10_000));
    assert_nesting_error(&main_with("%x: Int", "Int", &negs), "unary minus");
    let lists = format!("%x: {}Int{}", "List[".repeat(1_000_000), "]".repeat(1_000_000));
    assert_nesting_error(&main_with(&lists, "Int", "1"), "type arguments");
}

/// A `let` spine is a sequence, not nesting: 2 000 chained `let`s parse,
/// type-check and drop on a thread with a 2 MiB stack.
#[test]
fn let_spine_2000_deep() {
    const LETS: usize = 2_000;
    let mut body = String::from("let %v0 = relu(%x);\n");
    for i in 1..LETS {
        body.push_str(&format!("let %v{i} = relu(%v{});\n", i - 1));
    }
    body.push_str(&format!("%v{}", LETS - 1));
    let src = main_with("%x: Tensor[(1, 2)]", "Tensor[(1, 2)]", &body);
    let outcome = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let module = parse_module(&src).map_err(|e| e.to_string())?;
            let module = typeck::check_module(module).map_err(|e| e.to_string())?;
            drop(module);
            Ok::<(), String>(())
        })
        .expect("spawns")
        .join()
        .expect("no panic");
    assert_eq!(outcome, Ok(()));
}

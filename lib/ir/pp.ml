(* C-like pretty-printer for the IR; used by the CLI, examples and error
   messages.  The program form is the surface syntax [Parser] reads
   back.

   One printer, into a [Buffer]: the formatter entry points hand its
   text over line by line.  The output is byte-frozen — every artifact
   store key hashes [program_to_string], so changing a single byte
   re-keys the whole store (docs/CACHING.md). *)

open Types

let prec_of_binop = function
  | Mul | Div | Mod | Fmul | Fdiv -> 7
  | Add | Sub | Fadd | Fsub -> 6
  | Shl | Shr -> 5
  | Lt | Le | Gt | Ge | Fcmp_lt | Fcmp_le -> 4
  | Eq | Ne -> 3
  | BAnd -> 2
  | BXor -> 1
  | BOr -> 0

let str = Buffer.add_string
let int b n = str b (string_of_int n)

let ty b = function Tint -> str b "int" | Tfloat -> str b "float"

let rec expr b prec (e : Expr.t) =
  match e with
  | Int n -> int b n
  (* +. 0. normalizes IEEE negative zero: "%g" would print it "-0",
     which reparses as the integer 0 and reprints as "0" — breaking
     the canonical-text fixpoint the artifact-store keys rely on *)
  | Float f -> Printf.bprintf b "%g" (f +. 0.)
  | Var v -> str b v
  | Load (a, i) ->
    str b a;
    str b "[";
    expr b 0 i;
    str b "]"
  | Rom (r, i) ->
    str b r;
    str b "(";
    expr b 0 i;
    str b ")"
  | Unop (o, x) ->
    str b (unop_name o);
    expr b 8 x
  | Binop (o, l, r) ->
    let p = prec_of_binop o in
    let paren = p < prec in
    if paren then str b "(";
    expr b p l;
    str b " ";
    str b (binop_name o);
    str b " ";
    expr b (p + 1) r;
    if paren then str b ")"
  | Select (c, t, f) ->
    str b "(";
    expr b 1 c;
    str b " ? ";
    expr b 1 t;
    str b " : ";
    expr b 1 f;
    str b ")"

let e0 b e = expr b 0 e

(* Assignments and stores are most of a program and print directly;
   loops, conditionals and declarations are few, so [bprintf] is fast
   enough for them. *)
let rec stmt b indent (s : Stmt.t) =
  let pad = String.make indent ' ' in
  str b pad;
  match s with
  | Assign (x, e) ->
    str b x;
    str b " = ";
    expr b 0 e;
    str b ";"
  | Store (a, i, e) ->
    str b a;
    str b "[";
    expr b 0 i;
    str b "] = ";
    expr b 0 e;
    str b ";"
  | If (c, t, e) -> (
    let inner = block (indent + 2) in
    Printf.bprintf b "if (%a) {\n%a\n%s}" e0 c inner t pad;
    match e with
    | [] -> ()
    | e -> Printf.bprintf b " else {\n%a\n%s}" inner e pad)
  | For l ->
    let step = if l.step = 1 then "++" else " += " ^ string_of_int l.step in
    Printf.bprintf b "for (%s = %a; %s < %a; %s%s) {\n%a\n%s}" l.index e0
      l.lo l.index e0 l.hi l.index step (block (indent + 2)) l.body pad

and block indent b stmts =
  List.iteri
    (fun k s ->
      if k > 0 then str b "\n";
      stmt b indent s)
    stmts

let program b (p : Stmt.program) =
  Printf.bprintf b "program %s {\n" p.prog_name;
  List.iter (fun (x, t) -> Printf.bprintf b "  param %a %s;\n" ty t x) p.params;
  List.iter
    (fun (d : Stmt.array_decl) ->
      let kind =
        match d.a_kind with
        | Stmt.Input -> "in" | Stmt.Output -> "out" | Stmt.Local -> "local"
      in
      Printf.bprintf b "  %s %a %s[%d];\n" kind ty d.a_ty d.a_name d.a_size)
    p.arrays;
  List.iter
    (fun (r : Stmt.rom_decl) ->
      Printf.bprintf b "  rom %s = { " r.r_name;
      Array.iteri
        (fun k n ->
          if k > 0 then str b ", ";
          int b n)
        r.r_data;
      str b " };\n")
    p.roms;
  List.iter (fun (x, t) -> Printf.bprintf b "  %a %s;\n" ty t x) p.locals;
  Printf.bprintf b "%a\n}\n" (block 2) p.body

let to_string size print x =
  let b = Buffer.create size in
  print b x;
  Buffer.contents b

let expr_to_string e = to_string 64 e0 e
let stmt_to_string s = to_string 256 (fun b -> stmt b 0) s
let program_to_string p = to_string 4096 program p

(* Each '\n' of the text becomes a forced newline, so inside a caller's
   box the lines indent exactly as the box dictates. *)
let output ppf text =
  List.iteri
    (fun k line ->
      if k > 0 then Format.pp_force_newline ppf ();
      Format.pp_print_string ppf line)
    (String.split_on_char '\n' text)

let pp_expr ppf e = Format.pp_print_string ppf (expr_to_string e)
let pp_stmt ~indent ppf s = output ppf (to_string 256 (fun b -> stmt b indent) s)
let pp_program ppf p = output ppf (program_to_string p)

#include "workloads/lisp.hpp"

#include <cctype>
#include <stdexcept>

namespace hwgc {

namespace {
enum Tag : Word { kConsTag = 0, kIntTag = 1, kSymTag = 2, kClosureTag = 3 };
}  // namespace

SimConfig Lisp::default_config() {
  SimConfig cfg;
  cfg.coprocessor.num_cores = 8;
  return cfg;
}

std::vector<std::string> Lisp::demo_program(unsigned fib_n, unsigned range_n) {
  return {
      "(define fib (lambda (n) (if (< n 2) n (+ (fib (- n 1)) "
      "(fib (- n 2))))))",
      "(fib " + std::to_string(fib_n) + ")",
      "(define range (lambda (n) (if (= n 0) (quote ()) "
      "(cons n (range (- n 1))))))",
      "(define sum (lambda (l acc) (if (null? l) acc "
      "(sum (cdr l) (+ acc (car l))))))",
      "(sum (range " + std::to_string(range_n) + ") 0)",
      "(car (cdr (quote (10 20 30))))",
  };
}

Lisp::Lisp(Word semispace_words, SimConfig cfg) : rt_(semispace_words, cfg) {}

std::string Lisp::run(const std::string& src) {
  std::size_t pos = 0;
  Ref expr = parse(src, pos);
  Ref result = eval(expr, globals_);
  release(expr);
  const std::string out = print(result);
  release(result);
  return out;
}

void Lisp::define_global(const std::string& name, Ref value) {
  Ref sym = symbol(name);
  Ref pair = cons(sym, value);
  Ref extended = cons(pair, globals_);
  release(sym);
  release(pair);
  release(globals_);
  globals_ = extended;
}

// --- constructors ----------------------------------------------------------

Runtime::Ref Lisp::cons(Ref car_v, Ref cdr_v) {
  Ref c = rt_.alloc(2, 1);
  rt_.set_data(c, 0, kConsTag);
  rt_.set_ptr(c, 0, car_v);
  rt_.set_ptr(c, 1, cdr_v);
  return c;
}

Runtime::Ref Lisp::number(std::int32_t v) {
  Ref n = rt_.alloc(0, 2);
  rt_.set_data(n, 0, kIntTag);
  rt_.set_data(n, 1, static_cast<Word>(v));
  return n;
}

std::int32_t Lisp::int_of(Ref n) const {
  if (n.is_null() || tag(n) != kIntTag) {
    throw std::runtime_error("type error: expected an integer");
  }
  return static_cast<std::int32_t>(rt_.get_data(n, 1));
}

Runtime::Ref Lisp::symbol(const std::string& name) {
  // The interned table owns one permanent root per symbol; callers get
  // (and may freely release) duplicates.
  auto it = interned_.find(name);
  if (it != interned_.end()) return rt_.dup(it->second);
  Ref s = rt_.alloc(0, 1 + static_cast<Word>(name.size()));
  rt_.set_data(s, 0, kSymTag);
  for (std::size_t i = 0; i < name.size(); ++i) {
    rt_.set_data(s, 1 + static_cast<Word>(i), static_cast<Word>(name[i]));
  }
  interned_.emplace(name, s);
  return rt_.dup(s);
}

std::string Lisp::sym_name(Ref s) const {
  std::string out;
  for (Word i = 1; i < rt_.delta(s); ++i) {
    out.push_back(static_cast<char>(rt_.get_data(s, i)));
  }
  return out;
}

Runtime::Ref Lisp::closure(Ref params, Ref body, Ref env) {
  Ref c = rt_.alloc(3, 1);
  rt_.set_data(c, 0, kClosureTag);
  rt_.set_ptr(c, 0, params);
  rt_.set_ptr(c, 1, body);
  rt_.set_ptr(c, 2, env);
  return c;
}

// --- parser ----------------------------------------------------------------

Runtime::Ref Lisp::parse(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
    ++pos;
  if (pos >= s.size()) throw std::runtime_error("unexpected end of input");
  if (s[pos] == '(') {
    ++pos;
    return parse_list(s, pos);
  }
  if (s[pos] == ')') throw std::runtime_error("unexpected )");
  std::size_t start = pos;
  while (pos < s.size() && !std::isspace(static_cast<unsigned char>(s[pos])) &&
         s[pos] != '(' && s[pos] != ')')
    ++pos;
  const std::string token = s.substr(start, pos - start);
  if (std::isdigit(static_cast<unsigned char>(token[0])) ||
      (token.size() > 1 && token[0] == '-')) {
    return number(std::stoi(token));
  }
  return symbol(token);
}

Runtime::Ref Lisp::parse_list(const std::string& s, std::size_t& pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
    ++pos;
  if (pos >= s.size()) throw std::runtime_error("unterminated list");
  if (s[pos] == ')') {
    ++pos;
    return Ref{};  // nil
  }
  Ref head = parse(s, pos);
  Ref tail = parse_list(s, pos);
  Ref cell = cons(head, tail);
  release(head);
  release(tail);
  return cell;
}

// --- evaluator -------------------------------------------------------------

bool Lisp::try_lookup(Ref env, Ref sym, Ref& out) {
  // env is an assoc list of (symbol . value) pairs.
  Ref cur = rt_.dup(env);
  while (!cur.is_null()) {
    Ref pair = car(cur);
    Ref key = car(pair);
    if (rt_.address_of(key) == rt_.address_of(sym)) {
      out = cdr(pair);
      release(pair);
      release(key);
      release(cur);
      return true;
    }
    Ref next = cdr(cur);
    release(pair);
    release(key);
    release(cur);
    cur = next;
  }
  return false;
}

Runtime::Ref Lisp::lookup(Ref env, Ref sym) {
  Ref out;
  if (try_lookup(env, sym, out)) return out;
  // Top-level definitions made after a closure was created are still
  // visible (needed for self-recursive functions like fib).
  if (try_lookup(globals_, sym, out)) return out;
  throw std::runtime_error("unbound symbol: " + sym_name(sym));
}

Runtime::Ref Lisp::eval(Ref expr, Ref env) {
  if (expr.is_null()) return Ref{};
  switch (tag(expr)) {
    case kIntTag:
    case kClosureTag:
      return rt_.dup(expr);
    case kSymTag:
      return lookup(env, expr);
    default:
      break;
  }
  // A form: dispatch on the head.
  Ref head = car(expr);
  const std::string op = tag(head) == kSymTag ? sym_name(head) : "";
  release(head);
  Ref args = cdr(expr);

  if (op == "quote") {
    Ref quoted = car(args);
    release(args);
    return quoted;
  }
  if (op == "if") {
    Ref cond_e = car(args);
    Ref rest = cdr(args);
    Ref cond = eval(cond_e, env);
    const bool truthy =
        !cond.is_null() && !(tag(cond) == kIntTag && int_of(cond) == 0);
    release(cond_e);
    release(cond);
    Ref then_e = car(rest);
    Ref else_l = cdr(rest);
    Ref result;
    if (truthy) {
      result = eval(then_e, env);
    } else if (!else_l.is_null()) {
      Ref else_e = car(else_l);
      result = eval(else_e, env);
      release(else_e);
    }
    release(then_e);
    release(else_l);
    release(rest);
    release(args);
    return result;
  }
  if (op == "define") {
    Ref name = car(args);
    Ref rest = cdr(args);
    Ref value_e = car(rest);
    Ref value = eval(value_e, env);
    define_global(sym_name(name), value);
    release(name);
    release(rest);
    release(value_e);
    release(args);
    return value;
  }
  if (op == "lambda") {
    Ref params = car(args);
    Ref rest = cdr(args);
    Ref body = car(rest);
    Ref result = closure(params, body, env);
    release(params);
    release(rest);
    release(body);
    release(args);
    return result;
  }

  // Application: evaluate the operator (unless it names a builtin)
  // and the operands.
  Ref fn;
  if (!is_builtin(op)) {
    Ref fn_e = car(expr);
    fn = eval(fn_e, env);
    release(fn_e);
  }
  std::vector<Ref> vals;
  Ref cur = rt_.dup(args);
  while (!cur.is_null()) {
    Ref arg_e = car(cur);
    vals.push_back(eval(arg_e, env));
    release(arg_e);
    Ref next = cdr(cur);
    release(cur);
    cur = next;
  }
  release(args);

  Ref result = apply(fn, vals, op);
  release(fn);
  for (Ref v : vals) release(v);
  return result;
}

bool Lisp::is_builtin(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "<" || op == "=" ||
         op == "cons" || op == "car" || op == "cdr" || op == "null?";
}

Runtime::Ref Lisp::apply(Ref fn, const std::vector<Ref>& vals,
                         const std::string& op) {
  if (!fn.is_null() && tag(fn) == kClosureTag) {
    Ref params = rt_.load_ptr(fn, 0);
    Ref body = rt_.load_ptr(fn, 1);
    Ref env = rt_.load_ptr(fn, 2);
    // Bind arguments (walk a duplicate; params stays owned separately).
    Ref cur = rt_.dup(params);
    std::size_t i = 0;
    while (!cur.is_null() && i < vals.size()) {
      Ref name = car(cur);
      Ref pair = cons(name, vals[i]);
      Ref new_env = cons(pair, env);
      release(pair);
      release(name);
      release(env);
      env = new_env;
      Ref next = cdr(cur);
      release(cur);
      cur = next;
      ++i;
    }
    release(cur);
    Ref result = eval(body, env);
    release(params);
    release(body);
    release(env);
    return result;
  }
  // Builtins.
  auto need = [&](std::size_t n) {
    if (vals.size() != n) throw std::runtime_error("arity error in " + op);
  };
  if (op == "+" || op == "-" || op == "*" || op == "<" || op == "=") {
    need(2);
    const std::int32_t a = int_of(vals[0]);
    const std::int32_t b = int_of(vals[1]);
    if (op == "+") return number(a + b);
    if (op == "-") return number(a - b);
    if (op == "*") return number(a * b);
    if (op == "<") return number(a < b ? 1 : 0);
    return number(a == b ? 1 : 0);
  }
  if (op == "null?") {
    need(1);
    return number(vals[0].is_null() ? 1 : 0);
  }
  if (op == "cons") {
    need(2);
    return cons(vals[0], vals[1]);
  }
  if (op == "car") {
    need(1);
    return car(vals[0]);
  }
  if (op == "cdr") {
    need(1);
    return cdr(vals[0]);
  }
  throw std::runtime_error("not a function: " + op);
}

// --- printer ---------------------------------------------------------------

std::string Lisp::print(Ref v) {
  if (v.is_null()) return "()";
  switch (tag(v)) {
    case kIntTag:
      return std::to_string(int_of(v));
    case kSymTag:
      return sym_name(v);
    case kClosureTag:
      return "#<closure>";
    default: {
      std::string out = "(";
      Ref cur = rt_.dup(v);
      bool first = true;
      while (!cur.is_null() && tag(cur) == kConsTag) {
        Ref head = car(cur);
        if (!first) out += ' ';
        out += print(head);
        release(head);
        first = false;
        Ref next = cdr(cur);
        release(cur);
        cur = next;
      }
      release(cur);
      return out + ")";
    }
  }
}

}  // namespace hwgc

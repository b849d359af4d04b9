// Command-line flags, declared once per tool.
//
// Every CLI in the repository declares its flags as one table of typed
// bindings (a Flags object). The same table is the parser, the generated
// --help text and, through render(), the writer of reproducer lines that
// parse back to the same values. The conventions every tool shares:
//   * a value flag takes --flag=value or --flag value; an optional-value
//     flag (--json[=path]) takes a value only in the = form; a switch
//     takes none;
//   * values are strict: a number must be the whole token, decimal and in
//     range of the bound type ("12x", "", "-1" and overflow all fail), a
//     name must be one the flag knows, a comma list needs at least one
//     element and no empty ones;
//   * an unknown flag, a missing or malformed value or an unexpected
//     argument prints "<tool>: <message naming the flag>" and the usage to
//     stderr and exits 2; -h/--help prints the usage to stdout and exits 0.
// Rules that relate several flags stay in the tool, checked after parse()
// and reported through fail() with the same exit code.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hwgc {

/// Strict decimal parse of a whole token into T (an unsigned integer type
/// or double). nullopt on "", trailing junk, a sign on an unsigned type,
/// a value out of T's range and, for double, inf/nan.
template <class T>
std::optional<T> parse_number(std::string_view s) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
  if (s.empty()) return std::nullopt;
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

/// How one value type is read from and written to a flag's text.
template <class T>
struct Codec {
  std::function<std::optional<T>(const std::string&)> parse;
  std::function<std::string(const T&)> print;
  std::string meta;  ///< usage placeholder, e.g. "N"
  std::string need;  ///< what a malformed value should have been
};

/// The codec of a plain value type: unsigned integers (range-checked
/// against T), double and non-empty strings.
template <class T>
Codec<T> codec_for() {
  if constexpr (std::is_same_v<T, std::string>) {
    return {[](const std::string& s) -> std::optional<std::string> {
              if (s.empty()) return std::nullopt;
              return s;
            },
            [](const std::string& s) { return s; }, "S", "a non-empty value"};
  } else if constexpr (std::is_same_v<T, double>) {
    return {[](const std::string& s) { return parse_number<double>(s); },
            [](const double& v) {
              char buf[32];
              const auto r = std::to_chars(buf, buf + sizeof buf, v);
              return std::string(buf, r.ptr);
            },
            "F", "a number"};
  } else {
    return {[](const std::string& s) { return parse_number<T>(s); },
            [](const T& v) { return std::to_string(v); }, "N",
            sizeof(T) == 4 ? "an unsigned 32-bit integer"
                           : "an unsigned integer"};
  }
}

/// An enum choice: `parse` maps a name to a value (nullopt on junk),
/// `print` maps it back, `all` lists the names the usage and the error
/// messages show.
template <class T, class Parse, class Print>
Codec<T> choice(Parse parse, Print print, const std::vector<T>& all) {
  std::string names;
  for (const T& v : all) {
    if (!names.empty()) names += '|';
    names += print(v);
  }
  return {[parse](const std::string& s) -> std::optional<T> {
            return parse(s);
          },
          [print](const T& v) { return std::string(print(v)); }, names,
          "one of " + names};
}

/// A comma list of `elem` values: at least one element, none empty.
template <class T>
Codec<std::vector<T>> list_of(const Codec<T>& elem) {
  return {[elem](const std::string& s) -> std::optional<std::vector<T>> {
            std::vector<T> out;
            std::size_t pos = 0;
            while (true) {
              const std::size_t comma = s.find(',', pos);
              const auto v = elem.parse(s.substr(pos, comma - pos));
              if (!v) return std::nullopt;
              out.push_back(*v);
              if (comma == std::string::npos) return out;
              pos = comma + 1;
            }
          },
          [elem](const std::vector<T>& v) {
            std::string out;
            for (const T& x : v) {
              if (!out.empty()) out += ',';
              out += elem.print(x);
            }
            return out;
          },
          elem.meta + ",..", "a comma list, each " + elem.need};
}

/// One row of a tool's flag table.
struct Flag {
  enum class Kind { kSwitch, kValue, kOptionalValue, kPositional, kRest };

  std::string name;  ///< "--seed"; a positional's usage name otherwise
  std::string short_name;
  std::string meta;
  std::string help;
  Kind kind = Kind::kValue;
  /// Applies one value; returns "" or what the value should have been.
  std::function<std::string(const std::string&)> set;
  /// The bound value as flag text; unset for flags render() never writes.
  std::function<std::string()> get;
  std::string initial;  ///< get() at declaration: the default
  std::string heading;  ///< usage section title printed above this flag
  bool pinned = false;
  bool seen = false;

  /// render() writes this flag even at its default.
  Flag& pin() {
    pinned = true;
    return *this;
  }
  Flag& alias(std::string s) {
    short_name = std::move(s);
    return *this;
  }
  Flag& metavar(std::string m) {
    meta = std::move(m);
    return *this;
  }
};

class Flags {
 public:
  explicit Flags(std::string tool, std::string about = {})
      : tool_(std::move(tool)), about_(std::move(about)) {}

  /// A value bound through `codec`. A name without a leading '-' declares
  /// the next positional argument instead of a flag.
  template <class T>
  Flag& value(std::string name, T& ref, Codec<T> codec, std::string help) {
    Flag f;
    f.kind = name.front() == '-' ? Flag::Kind::kValue : Flag::Kind::kPositional;
    f.name = std::move(name);
    f.meta = codec.meta;
    f.help = std::move(help);
    f.set = [&ref, parse = codec.parse, need = codec.need](
                const std::string& s) -> std::string {
      auto v = parse(s);
      if (!v) return need;
      ref = std::move(*v);
      return {};
    };
    f.get = [&ref, print = codec.print] { return print(ref); };
    return add(std::move(f));
  }
  template <class T>
  Flag& value(std::string name, T& ref, std::string help) {
    return value(std::move(name), ref, codec_for<T>(), std::move(help));
  }

  /// A comma list replacing its default. A positional list takes every
  /// remaining argument, one element each.
  template <class T>
  Flag& list(std::string name, std::vector<T>& ref, Codec<T> elem,
             std::string help) {
    if (name.front() == '-') {
      return value(std::move(name), ref, list_of(elem), std::move(help));
    }
    Flag f;
    f.kind = Flag::Kind::kRest;
    f.name = std::move(name);
    f.help = std::move(help);
    f.set = [&ref, elem](const std::string& s) -> std::string {
      auto v = elem.parse(s);
      if (!v) return elem.need;
      ref.push_back(std::move(*v));
      return {};
    };
    return add(std::move(f));
  }
  template <class T>
  Flag& list(std::string name, std::vector<T>& ref, std::string help) {
    return list(std::move(name), ref, codec_for<T>(), std::move(help));
  }

  /// A preset: giving it runs `fn` (later flags can still override).
  Flag& action(std::string name, std::function<void()> fn, std::string help) {
    Flag f;
    f.kind = Flag::Kind::kSwitch;
    f.name = std::move(name);
    f.help = std::move(help);
    f.set = [fn = std::move(fn)](const std::string&) {
      fn();
      return std::string();
    };
    return add(std::move(f));
  }

  /// An on/off switch: giving it stores `on`.
  Flag& toggle(std::string name, bool& ref, std::string help, bool on = true) {
    Flag& f = action(std::move(name), [&ref, on] { ref = on; }, std::move(help));
    f.get = [&ref, on] { return std::string(ref == on ? "on" : ""); };
    f.initial = f.get();
    return f;
  }

  /// --flag[=value]: sets `on`; the = form also stores the value.
  Flag& opt_value(std::string name, bool& on, std::string& value,
                  std::string help) {
    Flag f;
    f.kind = Flag::Kind::kOptionalValue;
    f.name = std::move(name);
    f.meta = "PATH";
    f.help = std::move(help);
    f.set = [&on, &value](const std::string& s) {
      on = true;
      if (!s.empty()) value = s;
      return std::string();
    };
    return add(std::move(f));
  }

  /// Starts a titled group of flags in the usage.
  Flags& section(std::string title) {
    pending_heading_ = std::move(title);
    return *this;
  }

  std::size_t size() const noexcept { return flags_.size(); }
  bool help_requested() const noexcept { return help_; }

  /// True when the flag was given on the command line.
  bool seen(std::string_view name) const {
    const Flag* f = find(name);
    return f != nullptr && f->seen;
  }
  /// True when any flag declared at table index >= `first` was given.
  bool any_seen(std::size_t first) const {
    for (std::size_t i = first; i < flags_.size(); ++i) {
      if (flags_[i].seen) return true;
    }
    return false;
  }

  /// Parses `args` (no program name). Returns "" on success or after
  /// -h/--help (see help_requested()), else the error message.
  std::string try_parse(const std::vector<std::string>& args) {
    std::size_t next_positional = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a == "-h" || a == "--help") {
        help_ = true;
        return {};
      }
      Flag* f = nullptr;
      std::optional<std::string> val;
      if (a.size() > 1 && a.front() == '-') {
        const std::size_t eq = a.find('=');
        const std::string name = a.substr(0, eq);
        f = find(name);  // positionals never start with '-'
        if (f == nullptr) return "unknown flag " + name;
        if (eq != std::string::npos) val = a.substr(eq + 1);
        if (f->kind == Flag::Kind::kSwitch && val) {
          return name + " takes no value";
        }
        if (f->kind == Flag::Kind::kValue && !val) {
          if (i + 1 >= args.size()) return "missing value for " + name;
          val = args[++i];
        }
      } else {
        f = positional(next_positional);
        if (f == nullptr) return "unexpected argument \"" + a + "\"";
        if (f->kind == Flag::Kind::kPositional) ++next_positional;
        val = a;
      }
      const std::string need = f->set(val.value_or(""));
      if (!need.empty()) {
        return "malformed value \"" + *val + "\" for " + f->name + " (need " +
               need + ")";
      }
      f->seen = true;
    }
    return {};
  }

  /// Parses argv[1..argc): prints the usage and exits 0 on -h/--help,
  /// fails (exit 2) on any error.
  void parse(int argc, char** argv) {
    const std::string err = try_parse(std::vector<std::string>(
        argv + (argc > 0 ? 1 : 0), argv + (argc > 0 ? argc : 0)));
    if (help_) {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    if (!err.empty()) fail(err);
  }

  /// Reports a usage error the way parse() does and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
    std::fputs(usage().c_str(), stderr);
    std::exit(2);
  }

  /// The generated usage: synopsis, about text, one line per flag.
  std::string usage() const {
    std::string out = "usage: " + tool_;
    bool any_flag = false;
    for (const Flag& f : flags_) {
      if (f.kind == Flag::Kind::kPositional) {
        out += " [" + f.name + "]";
      } else if (f.kind == Flag::Kind::kRest) {
        out += " " + f.name + "...";
      } else {
        any_flag = true;
      }
    }
    if (any_flag) out += " [options]";
    out += "\n";
    if (!about_.empty()) out += about_ + "\n";
    constexpr std::size_t kColumn = 26;
    for (const Flag& f : flags_) {
      if (!f.heading.empty()) out += f.heading + ":\n";
      std::string left = "  " + f.name;
      if (!f.short_name.empty()) left += ", " + f.short_name;
      if (f.kind == Flag::Kind::kValue) left += " " + f.meta;
      if (f.kind == Flag::Kind::kOptionalValue) left += "[=" + f.meta + "]";
      std::string help = f.help;
      if ((f.kind == Flag::Kind::kValue || f.kind == Flag::Kind::kPositional) &&
          !f.initial.empty()) {
        help += " (default " + f.initial + ")";
      }
      out += left;
      std::size_t col = left.size();
      if (col + 2 > kColumn) {
        out += "\n";
        col = 0;
      }
      std::size_t pos = 0;
      while (true) {
        out += std::string(kColumn - col, ' ');
        col = 0;
        const std::size_t nl = help.find('\n', pos);
        out += help.substr(pos, nl - pos) + "\n";
        if (nl == std::string::npos) break;
        pos = nl + 1;
      }
    }
    return out;
  }

  /// The bound values as parseable flag text, in table order: every
  /// pinned flag, plus every other flag that differs from its default.
  std::string render() const {
    std::string out;
    for (const Flag& f : flags_) {
      if (!f.get || f.kind == Flag::Kind::kPositional) continue;
      const std::string v = f.get();
      if (!f.pinned && v == f.initial) continue;
      if (!out.empty()) out += ' ';
      out += f.name;
      if (f.kind != Flag::Kind::kSwitch) out += " " + v;
    }
    return out;
  }

 private:
  Flag& add(Flag f) {
    if (f.get) f.initial = f.get();
    f.heading = std::exchange(pending_heading_, {});
    flags_.push_back(std::move(f));
    return flags_.back();
  }

  Flag* find(std::string_view name) {
    for (Flag& f : flags_) {
      if (f.name == name || f.short_name == name) {
        return &f;
      }
    }
    return nullptr;
  }
  const Flag* find(std::string_view name) const {
    return const_cast<Flags*>(this)->find(name);
  }

  Flag* positional(std::size_t index) {
    for (Flag& f : flags_) {
      if (f.kind == Flag::Kind::kRest) return &f;
      if (f.kind == Flag::Kind::kPositional && index-- == 0) return &f;
    }
    return nullptr;
  }

  std::string tool_;
  std::string about_;
  std::deque<Flag> flags_;  // deque: add() hands out stable references
  std::string pending_heading_;
  bool help_ = false;
};

}  // namespace hwgc
